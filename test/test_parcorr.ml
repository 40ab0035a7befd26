(* Chunk-framed sample logs and sharded parallel correlation: QCheck
   batteries over the chunk boundary (framing round-trips at every chunk
   size, splits that never divide a sample), deterministic edge cases at
   0 / 1 / chunk-1 / chunk / chunk+1 samples, shard planning, the central
   serial-vs-parallel byte-identity property for all three profile shapes
   at -j 1/2/4, the clamp of -j to the host's cores, and the lossy
   collector's counted-drop behavior. *)
module P = Csspgo_profile
module Vm = Csspgo_vm
module Core = Csspgo_core
module D = Core.Driver
module W = Csspgo_workloads
module Fl = Csspgo_fleet
module Obs = Csspgo_obs
module SL = Vm.Sample_log

let add_record log (lbr, stack) =
  let lbr = Array.of_list (List.concat_map (fun (src, tgt) -> [ src; tgt ]) lbr) in
  let stack = Array.of_list stack in
  SL.add log ~lbr ~lbr_len:(Array.length lbr / 2) ~stack ~stack_len:(Array.length stack)

let log_of_records records =
  let log = SL.create () in
  List.iter (add_record log) records;
  log

let concat_logs parts =
  let log = SL.create () in
  List.iter (fun p -> SL.append ~into:log p) parts;
  log

let records_gen =
  QCheck.(
    small_list
      (pair
         (small_list (pair (int_range 0 100_000) (int_range 0 100_000)))
         (small_list (int_range 0 100_000))))

(* --- chunk framing round-trips --------------------------------------- *)

(* Any chunk size (down to one sample per chunk) must decode back to the
   same log, and the decoded chunk partition must concatenate to it with
   every chunk but the last exactly full. *)
let prop_chunked_roundtrip =
  QCheck.Test.make ~name:"chunk-framed logs round-trip at every chunk size"
    ~count:100
    QCheck.(pair (int_range 1 9) records_gen)
    (fun (chunk, records) ->
      let log = log_of_records records in
      let txt = SL.to_text log in
      let blob = SL.encode ~chunk log in
      (match SL.framing_version blob with
      | Ok 2 -> ()
      | _ -> QCheck.Test.fail_report "chunked encode is not framing v2");
      (match SL.decode blob with
      | Ok log' when String.equal (SL.to_text log') txt -> ()
      | Ok _ -> QCheck.Test.fail_report "decode differs from original"
      | Error _ -> QCheck.Test.fail_report "decode failed");
      match SL.decode_chunks blob with
      | Error _ -> QCheck.Test.fail_report "decode_chunks failed"
      | Ok parts ->
          let n = SL.n_samples log in
          if not (String.equal (SL.to_text (concat_logs parts)) txt) then
            QCheck.Test.fail_report "chunk concatenation differs from original";
          let sizes = List.map SL.n_samples parts in
          if List.fold_left ( + ) 0 sizes <> n then
            QCheck.Test.fail_report "chunk sample counts do not sum";
          let rec full = function
            | [] | [ _ ] -> true
            | s :: tl -> s = chunk && full tl
          in
          (* the empty log still frames as one (empty) chunk *)
          if n = 0 then List.length parts = 1 && List.hd sizes = 0
          else full sizes && List.for_all (fun s -> s > 0 && s <= chunk) sizes)

(* [split] must partition on whole-sample boundaries: concatenating the
   pieces reproduces the log byte-for-byte in both text and wire form. *)
let prop_split_never_divides =
  QCheck.Test.make ~name:"split never divides a sample" ~count:100
    QCheck.(pair (int_range 1 9) records_gen)
    (fun (chunk, records) ->
      let log = log_of_records records in
      let parts = SL.split ~chunk log in
      (if SL.n_samples log = 0 then
         if parts <> [] then QCheck.Test.fail_report "empty log split non-empty");
      List.iter
        (fun p ->
          if SL.n_samples p = 0 || SL.n_samples p > chunk then
            QCheck.Test.fail_report "split chunk size out of range")
        parts;
      let cat = concat_logs parts in
      String.equal (SL.to_text cat) (SL.to_text log)
      && String.equal (SL.encode cat) (SL.encode log))

(* --- cuts and joins share no writable block ---------------------------- *)

(* Cuts and joins hand out windows onto blocks that other logs still
   record into. An [add] to any log after [append], [concat], [split] or
   [slice_by_label] must leave every other log's replay and wire bytes as
   they were. Longer logs span several blocks, and the last block of a
   log mostly has room right after the records it shares. *)
let two_tenant_log records =
  let module Ls = Csspgo_support.Label_set in
  let acme = Ls.of_list [ ("tenant", "acme") ] and zeta = Ls.of_list [ ("tenant", "zeta") ] in
  let log = SL.create () in
  List.iteri
    (fun i record ->
      SL.set_label log (if i / 3 mod 2 = 0 then acme else zeta);
      add_record log record)
    records;
  log

let prop_no_shared_writes =
  let replay log =
    let out = ref [] in
    SL.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
        out := (Array.sub lbr 0 (2 * lbr_len), Array.sub stack 0 stack_len) :: !out);
    (List.rev !out, SL.encode log)
  in
  (* Each add writes a record no other add writes. *)
  let stamp = ref 0 in
  let untouched what writer others =
    let before = List.map replay others in
    incr stamp;
    let k = 1_000_000 + (10 * !stamp) in
    SL.add writer ~lbr:[| k; k + 1; k + 2; k + 3 |] ~lbr_len:2 ~stack:[| k + 4; k + 5 |]
      ~stack_len:2;
    if not (List.for_all2 (fun l r -> replay l = r) others before) then
      QCheck.Test.fail_reportf "%s: an add changed another log" what
  in
  (* Each log in turn writes while the others are checked. *)
  let each_writes what logs =
    let rec go seen = function
      | [] -> ()
      | x :: rest ->
          untouched what x (List.rev_append seen rest);
          go (x :: seen) rest
    in
    go [] logs
  in
  QCheck.Test.make ~name:"cuts and joins share no writable block" ~count:100
    QCheck.(triple (int_range 1 9) records_gen records_gen)
    (fun (chunk, ra, rb) ->
      let a = two_tenant_log ra and b = two_tenant_log rb in
      SL.append ~into:a b;
      each_writes "append" [ a; b ];
      let a = two_tenant_log ra and b = two_tenant_log rb in
      each_writes "concat" [ a; b; SL.concat [ a; b ] ];
      let t = two_tenant_log (ra @ rb) in
      each_writes "split" (t :: SL.split ~chunk t);
      let t = two_tenant_log (ra @ rb) in
      each_writes "slice_by_label" (t :: List.map snd (SL.slice_by_label t));
      true)

let test_chunk_boundaries () =
  let chunk = 4 in
  let record i = ([ (i, i + 1) ], [ i ]) in
  List.iter
    (fun n ->
      let log = log_of_records (List.init n record) in
      let expected_chunks = if n = 0 then 1 else (n + chunk - 1) / chunk in
      (match SL.decode_chunks (SL.encode ~chunk log) with
      | Ok parts ->
          Alcotest.(check int)
            (Printf.sprintf "%d samples -> chunk count" n)
            expected_chunks (List.length parts)
      | Error e ->
          Alcotest.failf "%d samples: %s" n
            (Csspgo_support.Wire.error_to_string e));
      Alcotest.(check int)
        (Printf.sprintf "%d samples -> split count" n)
        (if n = 0 then 0 else expected_chunks)
        (List.length (SL.split ~chunk log)))
    [ 0; 1; chunk - 1; chunk; chunk + 1; (2 * chunk) + 1 ];
  (* the default encode is the chunked v2 framing *)
  Alcotest.(check (result int reject))
    "default encode is v2" (Ok 2)
    (Result.map_error ignore (SL.framing_version (SL.encode (SL.create ()))))

(* --- shard planning --------------------------------------------------- *)

let test_plan () =
  let logs sizes =
    List.map (fun n -> log_of_records (List.init n (fun i -> ([ (i, i) ], [])))) sizes
  in
  let sizes shards = List.map (List.fold_left (fun n l -> n + SL.n_samples l) 0) shards in
  Alcotest.(check (list int)) "chunks group up to the target" [ 4; 4; 2 ]
    (sizes (Core.Correlate.plan ~target:3 (logs [ 2; 2; 2; 2; 2 ])));
  Alcotest.(check (list int)) "empty chunks are dropped" [ 3 ]
    (sizes (Core.Correlate.plan ~target:3 (logs [ 0; 1; 0; 2; 0 ])));
  Alcotest.(check (list int)) "no chunks, no shards" []
    (sizes (Core.Correlate.plan ~target:3 []));
  match Core.Correlate.plan ~target:0 [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive target accepted"

(* --- serial vs sharded correlation ------------------------------------ *)

let w = W.Suite.adfinder

(* a denser sampling period than the default keeps the training log well
   past one shard at the test's shard target *)
let options =
  {
    D.default_options with
    D.pmu = { Vm.Machine.default_pmu with Vm.Machine.sample_period = 101 };
  }

let profile_texts (p, flat) =
  P.Text_io.to_string p
  ^
  match flat with
  | Some f -> P.Text_io.to_string (P.Text_io.Probe_prof f)
  | None -> ""

let training_log (b : Fl.Build.built) =
  let log = SL.create () in
  List.iter
    (fun (spec : D.run_spec) ->
      ignore
        (Vm.Machine.run ~pmu:(Some options.D.pmu)
           ~sink:(SL.sink log) ~globals_init:spec.D.rs_globals
           ~args:spec.D.rs_args b.Fl.Build.vb_bin ~entry:w.D.w_entry))
    w.D.w_train;
  log

let test_parallel_identity () =
  List.iter
    (fun shape ->
      let b =
        Fl.Build.profiling_build ~options ~shape ~source:w.D.w_source
      in
      let log = training_log b in
      Alcotest.(check bool)
        (Fl.Build.shape_name shape ^ " training produced samples")
        true
        (SL.n_samples log > 0);
      let serial = profile_texts (Fl.Build.correlate ~options ~shape b log) in
      (* a chunk/shard target far below the log size forces real
         multi-shard merges, so the identity is not vacuously serial *)
      let chunks = SL.split ~chunk:16 log in
      Alcotest.(check bool)
        (Fl.Build.shape_name shape ^ " multiple shards in play")
        true
        (List.length (Core.Correlate.plan ~target:16 chunks) > 1);
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s -j %d byte-identical to serial"
               (Fl.Build.shape_name shape) jobs)
            serial
            (profile_texts
               (Fl.Build.correlate_chunks ~shard_target:16 ~jobs ~options
                  ~shape b chunks)))
        [ 1; 2; 4 ])
    [ Fl.Build.Lines; Fl.Build.Probes; Fl.Build.Ctx ]

(* --- -j clamp ----------------------------------------------------------- *)

let clamped registry =
  Obs.Metrics.find_counter (Obs.Metrics.snapshot registry) "parcorr.jobs-clamped"

(* Asking for more domains than the host has cores gives the -j 1 bytes
   and counts one clamp per kernel run, for the fleet's chunked call and
   for the Driver's Correlate stage. *)
let test_jobs_clamp () =
  let over = Domain.recommended_domain_count () + 2 in
  let shape = Fl.Build.Ctx in
  let b = Fl.Build.profiling_build ~options ~shape ~source:w.D.w_source in
  let chunks = SL.split ~chunk:16 (training_log b) in
  let chunked jobs =
    let metrics = Obs.Metrics.create () in
    let out =
      Fl.Build.correlate_chunks ~obs:metrics ~shard_target:16 ~jobs ~options ~shape b
        chunks
    in
    (profile_texts out, clamped metrics)
  in
  let bytes1, clamps1 = chunked 1 and bytes_over, clamps_over = chunked over in
  Alcotest.(check string) "chunked bytes equal -j 1" bytes1 bytes_over;
  Alcotest.(check (option int)) "-j 1 not clamped" None clamps1;
  Alcotest.(check (option int)) "chunked clamp counted" (Some 1) clamps_over;
  let plan jobs =
    let metrics = Obs.Metrics.create () and kept = ref [] in
    let memo ~kind ~key:_ ~ser ~de:_ f =
      let v = f () in
      if String.equal kind "correlate" then kept := ser v :: !kept;
      v
    in
    let hooks = { D.Plan.default_hooks with D.Plan.memo; obs = metrics; jobs } in
    ignore (D.Plan.run ~hooks (D.Plan.make ~options ~variant:D.Csspgo_full w));
    (!kept, clamped metrics)
  in
  let memo1, plan_clamps1 = plan 1 and memo_over, plan_clamps_over = plan over in
  Alcotest.(check (list string)) "correlate memo bytes equal -j 1" memo1 memo_over;
  Alcotest.(check (option int)) "plan -j 1 not clamped" None plan_clamps1;
  Alcotest.(check (option int)) "plan clamp counted" (Some 1) plan_clamps_over

(* --- lossy collector -------------------------------------------------- *)

let batch ?(version = 0) ?(seq = 0) ~blob instance =
  {
    Fl.Instance.b_instance = instance;
    b_version = version;
    b_seq = seq;
    b_blob = blob;
    b_samples = 0;
    b_requests = 1;
  }

let test_lossy_collector () =
  let obs = Obs.Metrics.create () in
  let c = Fl.Collector.create ~obs ~lossy:true ~shards:2 () in
  let good = SL.encode (log_of_records [ ([ (1, 2) ], [ 3 ]) ]) in
  Fl.Collector.ingest c (batch ~blob:good 0);
  Fl.Collector.ingest c (batch ~seq:1 ~blob:"not a CSLG blob" 0);
  Fl.Collector.ingest c (batch ~seq:2 ~blob:good 0);
  (match Fl.Collector.drain ~jobs:1 c with
  | [ m ] ->
      Alcotest.(check int) "both intact batches survive" 2
        (SL.n_samples m.Fl.Collector.m_log);
      (* the dropped blob's batch is gone from the drain accounting — only
         the counter remembers it *)
      Alcotest.(check int) "batch count excludes the drop" 2
        m.Fl.Collector.m_batches
  | ms -> Alcotest.failf "expected one version, got %d" (List.length ms));
  Alcotest.(check (option int)) "drop counted" (Some 1)
    (Obs.Metrics.find_counter (Obs.Metrics.snapshot obs) "collector.dropped-blobs")

let suite =
  ( "parcorr",
    [
      QCheck_alcotest.to_alcotest prop_chunked_roundtrip;
      QCheck_alcotest.to_alcotest prop_split_never_divides;
      QCheck_alcotest.to_alcotest prop_no_shared_writes;
      Alcotest.test_case "chunk boundary cases" `Quick test_chunk_boundaries;
      Alcotest.test_case "shard planning" `Quick test_plan;
      Alcotest.test_case "serial vs -j 1/2/4 byte identity" `Quick
        test_parallel_identity;
      Alcotest.test_case "-j above the core count clamps" `Quick test_jobs_clamp;
      Alcotest.test_case "lossy collector counts drops" `Quick
        test_lossy_collector;
    ] )
