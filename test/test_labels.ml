(* Request-labeled profiles: label-set canonicalization laws, labeled
   sample-log slicing/framing (CSLG v3), the slice-then-merge byte-identity
   for all three profile shapes at -j 1/2/4, label-set projection and
   re-blending, the multi-tenant mix generator, and the tenancy blend
   against the unlabeled fleet path on the same traffic. *)
module LS = Csspgo_support.Label_set
module Wire = Csspgo_support.Wire
module Vm = Csspgo_vm
module SL = Vm.Sample_log
module P = Csspgo_profile
module Core = Csspgo_core
module D = Core.Driver
module W = Csspgo_workloads
module Fl = Csspgo_fleet

let qcheck = QCheck_alcotest.to_alcotest

(* --- label sets ------------------------------------------------------- *)

let pair_gen =
  QCheck.(pair (string_small_of Gen.printable) (string_small_of Gen.printable))

let pairs_gen = QCheck.small_list pair_gen

let prop_intern_order_insensitive =
  QCheck.Test.make ~name:"label-set interning is order-insensitive" ~count:200
    QCheck.(pair pairs_gen (int_bound 1000))
    (fun (pairs, seed) ->
      let shuffled = Array.of_list pairs in
      Csspgo_support.Rng.shuffle
        (Csspgo_support.Rng.create (Int64.of_int seed))
        shuffled;
      let a = LS.of_list pairs and b = LS.of_list (Array.to_list shuffled) in
      LS.equal a b && String.equal (LS.canonical a) (LS.canonical b))

let prop_canonical_injective =
  QCheck.Test.make ~name:"canonical keys collide only for equal sets" ~count:200
    QCheck.(pair pairs_gen pairs_gen)
    (fun (pa, pb) ->
      let a = LS.of_list pa and b = LS.of_list pb in
      String.equal (LS.canonical a) (LS.canonical b) = LS.equal a b)

let prop_canonical_roundtrip =
  QCheck.Test.make ~name:"of_canonical inverts canonical" ~count:200 pairs_gen
    (fun pairs ->
      let t = LS.of_list pairs in
      LS.equal t (LS.of_canonical (LS.canonical t)))

let test_non_canonical_rejected () =
  (* Hand-encode two pairs in the wrong order: decoding must raise, not
     silently re-sort into a second spelling of the same set. *)
  let enc pairs =
    let e = Wire.Enc.create () in
    List.iter
      (fun (k, v) ->
        Wire.Enc.string e k;
        Wire.Enc.string e v)
      pairs;
    Wire.Enc.contents e
  in
  let bad = enc [ ("b", "1"); ("a", "1") ] in
  (match LS.of_canonical bad with
  | exception Wire.Error _ -> ()
  | _ -> Alcotest.fail "non-canonical byte order accepted");
  let dup = enc [ ("a", "1"); ("a", "1") ] in
  (match LS.of_canonical dup with
  | exception Wire.Error _ -> ()
  | _ -> Alcotest.fail "duplicate pair accepted");
  match LS.of_canonical "\x05" with
  | exception Wire.Error _ -> ()
  | _ -> Alcotest.fail "truncated bytes accepted"

let test_project_and_display () =
  let t = LS.of_list [ ("tenant", "a"); ("endpoint", "rank"); ("arm", "x") ] in
  Alcotest.(check string) "display" "arm=x,endpoint=rank,tenant=a" (LS.to_string t);
  let p = LS.project t ~keys:[ "tenant" ] in
  Alcotest.(check string) "projected" "tenant=a" (LS.to_string p);
  Alcotest.(check bool) "project to nothing" true
    (LS.is_empty (LS.project t ~keys:[ "nope" ]));
  (match LS.of_string "tenant=a,endpoint=rank,arm=x" with
  | Ok t' -> Alcotest.(check bool) "parse display" true (LS.equal t t')
  | Error e -> Alcotest.fail e);
  match LS.of_string "-" with
  | Ok e -> Alcotest.(check bool) "dash is empty" true (LS.is_empty e)
  | Error e -> Alcotest.fail e

(* --- labeled sample logs ---------------------------------------------- *)

let label_pool =
  [|
    LS.empty;
    LS.of_list [ ("tenant", "a") ];
    LS.of_list [ ("tenant", "b") ];
    LS.of_list [ ("tenant", "a"); ("endpoint", "x") ];
  |]

(* Records paired with a label index into the pool. *)
let labeled_records_gen =
  QCheck.(
    small_list
      (pair
         (pair
            (small_list (pair (int_range 0 100_000) (int_range 0 100_000)))
            (small_list (int_range 0 100_000)))
         (int_bound (Array.length label_pool - 1))))

let log_of_labeled records =
  let log = SL.create () in
  List.iter
    (fun ((lbr, stack), li) ->
      SL.set_label log label_pool.(li);
      let lbr = Array.of_list (List.concat_map (fun (src, tgt) -> [ src; tgt ]) lbr) in
      let stack = Array.of_list stack in
      SL.add log ~lbr ~lbr_len:(Array.length lbr / 2) ~stack ~stack_len:(Array.length stack))
    records;
  log

let counts_sig log =
  String.concat ";"
    (List.map
       (fun (ls, n) -> Printf.sprintf "%s:%d" (LS.to_string ls) n)
       (SL.label_counts log))

let prop_labeled_roundtrip =
  QCheck.Test.make ~name:"labeled logs round-trip through CSLG v3" ~count:120
    QCheck.(pair (int_range 1 7) labeled_records_gen)
    (fun (chunk, records) ->
      let log = log_of_labeled records in
      let blob = SL.encode ~chunk log in
      let expect_v = if SL.is_labeled log then 3 else 2 in
      (match SL.framing_version blob with
      | Ok v when v = expect_v -> ()
      | Ok v -> QCheck.Test.fail_reportf "framed v%d, expected v%d" v expect_v
      | Error _ -> QCheck.Test.fail_report "framing_version failed");
      match SL.decode blob with
      | Error _ -> QCheck.Test.fail_report "decode failed"
      | Ok log' ->
          String.equal (SL.to_text log') (SL.to_text log)
          && String.equal (counts_sig log') (counts_sig log)
          && String.equal (SL.encode ~chunk log') blob)

let prop_unlabeled_framing_unchanged =
  QCheck.Test.make
    ~name:"label-free logs frame as v2, byte-identical to pre-label format"
    ~count:120
    QCheck.(pair (int_range 1 7) labeled_records_gen)
    (fun (chunk, records) ->
      (* Same records streamed with labels vs. with none: stripping labels
         must give the exact v2 bytes, and a forced-v3 detour must decode
         back to them (the lossless downgrade). *)
      let labeled = log_of_labeled records in
      let plain = log_of_labeled (List.map (fun (r, _) -> (r, 0)) records) in
      let v2 = SL.encode ~chunk plain in
      (match SL.framing_version v2 with
      | Ok 2 -> ()
      | _ -> QCheck.Test.fail_report "unlabeled log did not frame as v2");
      if not (String.equal (SL.encode ~chunk (SL.unlabeled labeled)) v2) then
        QCheck.Test.fail_report "unlabeled copy encodes differently";
      let v3 = SL.encode ~chunk ~frame:`V3 plain in
      (match SL.framing_version v3 with
      | Ok 3 -> ()
      | _ -> QCheck.Test.fail_report "forced v3 did not frame as v3");
      match SL.decode v3 with
      | Error _ -> QCheck.Test.fail_report "forced v3 decode failed"
      | Ok back -> String.equal (SL.encode ~chunk back) v2)

let prop_slices_partition =
  QCheck.Test.make ~name:"label slices partition the log" ~count:120
    labeled_records_gen
    (fun records ->
      let log = log_of_labeled records in
      let slices = SL.slice_by_label log in
      let total =
        List.fold_left (fun a (_, s) -> a + SL.n_samples s) 0 slices
      in
      if total <> SL.n_samples log then
        QCheck.Test.fail_report "slice sample counts do not sum";
      List.iter
        (fun (ls, s) ->
          (match SL.label_counts s with
          | [ (ls', n) ] ->
              if not (LS.equal ls ls') || n <> SL.n_samples s then
                QCheck.Test.fail_report "slice is not single-labeled"
          | [] -> if SL.n_samples s <> 0 then QCheck.Test.fail_report "empty runs"
          | _ -> QCheck.Test.fail_report "slice carries several labels");
          (* The slice's records are exactly the stream's records under
             that label, in order. *)
          let expect =
            List.filter_map
              (fun ((r, li) : _ * int) ->
                if LS.equal label_pool.(li) ls then Some r else None)
              records
          in
          let expect_log =
            log_of_labeled (List.map (fun r -> (r, 0)) expect)
          in
          if not (String.equal (SL.to_text s) (SL.to_text expect_log)) then
            QCheck.Test.fail_report "slice records differ from filtered stream")
        slices;
      true)

let prop_chunks_and_append_carry_labels =
  QCheck.Test.make ~name:"chunking, splitting and appending preserve labels"
    ~count:120
    QCheck.(pair (int_range 1 7) (pair labeled_records_gen labeled_records_gen))
    (fun (chunk, (ra, rb)) ->
      let a = log_of_labeled ra and b = log_of_labeled rb in
      (* decode_chunks: per-chunk labels reassemble to the whole. *)
      (match SL.decode_chunks (SL.encode ~chunk a) with
      | Error _ -> QCheck.Test.fail_report "decode_chunks failed"
      | Ok parts ->
          let re = SL.create () in
          List.iter (fun p -> SL.append ~into:re p) parts;
          if
            not
              (String.equal (counts_sig re) (counts_sig a)
              && String.equal (SL.to_text re) (SL.to_text a)
              && String.equal (SL.encode re) (SL.encode a))
          then QCheck.Test.fail_report "chunked labels do not reassemble");
      (* split carries labels the same way. *)
      let re = SL.create () in
      List.iter (fun p -> SL.append ~into:re p) (SL.split ~chunk a);
      if
        not
          (String.equal (counts_sig re) (counts_sig a)
          && String.equal (SL.encode re) (SL.encode a))
      then QCheck.Test.fail_report "split loses labels";
      (* append remaps intern ids across logs. *)
      let ab = SL.create () in
      SL.append ~into:ab a;
      SL.append ~into:ab b;
      let whole = log_of_labeled (ra @ rb) in
      String.equal (counts_sig ab) (counts_sig whole)
      && String.equal (SL.to_text ab) (SL.to_text whole)
      && String.equal (SL.encode ab) (SL.encode whole))

(* A label that changes on every sample, cut into 1,200 short chunks by
   [split] and by [decode_chunks]. The digest covers every part's CSLG
   bytes, label window included, in order; it was recorded while each
   cut still walked the run stream from its first run. *)
let test_alternating_labels_chunked () =
  let log = SL.create () in
  for i = 0 to 5999 do
    SL.set_label log label_pool.(1 + (i mod 2));
    let lbr = [| i + 1; i + 2; i + 3; i + 4 |] and stack = [| i + 5; 7 |] in
    SL.add log ~lbr ~lbr_len:(1 + (i mod 2)) ~stack ~stack_len:(1 + (i mod 3 / 2))
  done;
  let digest parts =
    Printf.sprintf "%016Lx"
      (Csspgo_support.Fnv.hash_string (String.concat "" (List.map SL.encode parts)))
  in
  let split = SL.split ~chunk:5 log in
  Alcotest.(check int) "split parts" 1200 (List.length split);
  Alcotest.(check string) "split parts' bytes" "f12944b63e7aaa03" (digest split);
  match SL.decode_chunks (SL.encode ~chunk:5 log) with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok parts ->
      Alcotest.(check int) "decoded chunks" 1200 (List.length parts);
      Alcotest.(check string) "decoded chunks' bytes" "f12944b63e7aaa03" (digest parts)

let test_label_free_is_implicit_slice () =
  let log = SL.create () in
  let lbr = [| 1; 2 |] and stack = [| 3 |] in
  for _ = 1 to 5 do
    SL.add log ~lbr ~lbr_len:1 ~stack ~stack_len:1
  done;
  Alcotest.(check bool) "not labeled" false (SL.is_labeled log);
  (match SL.label_counts log with
  | [ (ls, 5) ] when LS.is_empty ls -> ()
  | _ -> Alcotest.fail "label-free log is not a single implicit slice");
  match SL.slice_by_label log with
  | [ (ls, s) ] when LS.is_empty ls && SL.n_samples s = 5 -> ()
  | _ -> Alcotest.fail "slice_by_label on label-free log"

let test_label_section_corruption () =
  let log =
    log_of_labeled [ (([ (1, 2) ], [ 3 ]), 1); (([ (4, 5) ], [ 6 ]), 2) ]
  in
  let blob = SL.encode log in
  Alcotest.(check bool) "labeled" true (SL.is_labeled log);
  (* Every single-bit flip must produce a typed error or decode to a log
     whose labels equal the original — never silently different labels. *)
  let orig = counts_sig log in
  let flips = ref 0 and rejected = ref 0 in
  String.iteri
    (fun i _ ->
      for bit = 0 to 7 do
        let b = Bytes.of_string blob in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        incr flips;
        match SL.decode (Bytes.to_string b) with
        | Error _ -> incr rejected
        | Ok log' ->
            if not (String.equal (counts_sig log') orig) then
              Alcotest.failf "bit flip at byte %d bit %d mislabeled samples" i
                bit
      done)
    blob;
  Alcotest.(check bool) "some flips rejected" true (!rejected > 0)

(* --- mix generation --------------------------------------------------- *)

let small_mix ?(requests = 6) ?(diurnal_period = 0) ?(seed = 11L) () =
  W.Mix.make ~seed ~requests ~diurnal_period
    [
      { W.Mix.t_name = "acme"; t_workload = W.Suite.adfinder; t_weight = 3 };
      { W.Mix.t_name = "zeta"; t_workload = W.Suite.haas; t_weight = 1 };
    ]

let test_mix_composes () =
  let mix = small_mix () in
  Alcotest.(check int) "stream length" 6 (List.length mix.W.Mix.mx_requests);
  Alcotest.(check int) "counts sum" 6
    (List.fold_left (fun a (_, n) -> a + n) 0 mix.W.Mix.mx_counts);
  (* Determinism: same inputs, byte-identical mix. *)
  let mix' = small_mix () in
  Alcotest.(check string) "source deterministic"
    mix.W.Mix.mx_workload.D.w_source mix'.W.Mix.mx_workload.D.w_source;
  (* The composed program compiles and every request runs clean. *)
  let prog = Csspgo_frontend.Lower.compile mix.W.Mix.mx_workload.D.w_source in
  let bin = Csspgo_codegen.Emit.emit ~options:D.default_options.D.emit_opts prog in
  List.iter
    (fun ((spec : D.run_spec), ls) ->
      Alcotest.(check bool) "request labeled" false (LS.is_empty ls);
      ignore
        (Vm.Machine.run ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args
           bin ~entry:"main"))
    mix.W.Mix.mx_requests;
  List.iter
    (fun (_, specs) ->
      List.iter
        (fun (spec : D.run_spec) ->
          ignore
            (Vm.Machine.run ~globals_init:spec.D.rs_globals
               ~args:spec.D.rs_args bin ~entry:"main"))
        specs)
    mix.W.Mix.mx_tenant_evals

let test_mix_diurnal_drifts () =
  (* With a diurnal period, the first and second half of a long stream see
     different tenant mixes (the wave rotates dominance). *)
  let mix = small_mix ~requests:64 ~diurnal_period:32 () in
  let names =
    List.map (fun (_, ls) -> Option.get (LS.find ls W.Mix.tenant_key))
      mix.W.Mix.mx_requests
  in
  let count name l =
    List.length (List.filter (String.equal name) l)
  in
  let half = List.filteri (fun i _ -> i < 32) names
  and rest = List.filteri (fun i _ -> i >= 32) names in
  Alcotest.(check bool) "mix drifts between halves" true
    (count "acme" half <> count "acme" rest)

(* --- slice/merge identity over the full pipeline ---------------------- *)

let options = { D.default_options with D.trim_threshold = 0L }

let mix_log mix =
  (* Single-instance labeled serving at full duty: the log is the whole
     stream's samples with per-request labels. *)
  let shape = Fl.Build.Ctx in
  let b =
    Fl.Build.profiling_build ~options ~shape
      ~source:mix.W.Mix.mx_workload.D.w_source
  in
  let log = ref (SL.create ()) in
  let _ =
    Fl.Instance.serve_labeled
      {
        Fl.Instance.ic_instance = 0;
        ic_version = 0;
        ic_duty = 1.0;
        ic_batch_requests = max 1 (List.length mix.W.Mix.mx_requests);
        ic_seed = 5L;
      }
      ~pmu:options.D.pmu ~bin:b.Fl.Build.vb_bin
      ~entry:mix.W.Mix.mx_workload.D.w_entry ~requests:mix.W.Mix.mx_requests
      ~ship:(fun batch ->
        match SL.decode batch.Fl.Instance.b_blob with
        | Ok l -> SL.append ~into:!log l
        | Error _ -> Alcotest.fail "batch decode failed")
  in
  !log

let profile_sig = P.Text_io.to_string

let test_slice_merge_identity () =
  let mix = small_mix ~requests:4 () in
  let log = mix_log mix in
  Alcotest.(check bool) "stream is labeled" true (SL.is_labeled log);
  List.iter
    (fun shape ->
      let b =
        Fl.Build.profiling_build ~options ~shape
          ~source:mix.W.Mix.mx_workload.D.w_source
      in
      let serial, serial_flat = Fl.Build.correlate ~options ~shape b log in
      let j1 = Fl.Build.correlate_labeled ~jobs:1 ~options ~shape b log in
      List.iter
        (fun jobs ->
          let l = Fl.Build.correlate_labeled ~jobs ~options ~shape b log in
          Alcotest.(check string)
            (Printf.sprintf "%s blend identical at -j %d"
               (Fl.Build.shape_name shape) jobs)
            (profile_sig serial) (profile_sig l.Fl.Build.lc_blend);
          (match (serial_flat, l.Fl.Build.lc_flat) with
          | None, None -> ()
          | Some a, Some b' ->
              Alcotest.(check string) "flat identical"
                (P.Text_io.to_string (P.Text_io.Probe_prof a))
                (P.Text_io.to_string (P.Text_io.Probe_prof b'))
          | _ -> Alcotest.fail "flat presence differs");
          Alcotest.(check string)
            (Printf.sprintf "slices identical at -j %d" jobs)
            (P.Labels.to_string j1.Fl.Build.lc_slices)
            (P.Labels.to_string l.Fl.Build.lc_slices))
        [ 1; 2; 4 ];
      (* Probe and ctx shapes are additive at profile level: merging the
         slices at weight 1 reconstructs the blend byte-for-byte. *)
      if shape <> Fl.Build.Lines then
        Alcotest.(check string)
          (Fl.Build.shape_name shape ^ " slices re-merge to the blend")
          (profile_sig serial)
          (profile_sig (P.Labels.blend j1.Fl.Build.lc_slices));
      (* Slice weights are the observed per-label sample counts. *)
      let counts = SL.label_counts log in
      List.iter
        (fun s ->
          let expect =
            List.assoc_opt s.P.Labels.sl_label
              (List.map (fun (l', n) -> (l', Int64.of_int n)) counts)
          in
          match expect with
          | Some n ->
              Alcotest.(check int64) "slice weight" n s.P.Labels.sl_weight
          | None -> Alcotest.fail "slice for unobserved label")
        (P.Labels.slices j1.Fl.Build.lc_slices))
    [ Fl.Build.Lines; Fl.Build.Probes; Fl.Build.Ctx ]

let test_single_tenant_degenerate () =
  (* One tenant: exactly one slice, and (with trimming off) the slice IS
     the blend; with trimming on, the slice stays whole. *)
  let mix =
    W.Mix.make ~seed:3L ~requests:3
      [ { W.Mix.t_name = "solo"; t_workload = W.Suite.adfinder; t_weight = 1 } ]
  in
  let log = mix_log mix in
  let b =
    Fl.Build.profiling_build ~options ~shape:Fl.Build.Ctx
      ~source:mix.W.Mix.mx_workload.D.w_source
  in
  let l = Fl.Build.correlate_labeled ~options ~shape:Fl.Build.Ctx b log in
  Alcotest.(check int) "one slice" 1 (P.Labels.n_slices l.Fl.Build.lc_slices);
  match P.Labels.slices l.Fl.Build.lc_slices with
  | [ s ] -> (
      Alcotest.(check string) "slice equals blend"
        (profile_sig l.Fl.Build.lc_blend)
        (profile_sig s.P.Labels.sl_profile);
      (* With trimming on, only the blend is trimmed: the lone slice keeps
         the untrimmed trie. *)
      let trimmed = { options with D.trim_threshold = 200L } in
      let t = Fl.Build.correlate_labeled ~options:trimmed ~shape:Fl.Build.Ctx b log in
      Alcotest.(check bool) "trimming removes contexts" false
        (String.equal (profile_sig l.Fl.Build.lc_blend) (profile_sig t.Fl.Build.lc_blend));
      Alcotest.(check string) "trimmed blend equals serial"
        (profile_sig (fst (Fl.Build.correlate ~options:trimmed ~shape:Fl.Build.Ctx b log)))
        (profile_sig t.Fl.Build.lc_blend);
      match P.Labels.slices t.Fl.Build.lc_slices with
      | [ s' ] ->
          Alcotest.(check string) "lone slice stays untrimmed"
            (profile_sig s.P.Labels.sl_profile)
            (profile_sig s'.P.Labels.sl_profile)
      | _ -> assert false)
  | _ -> assert false

let test_labels_container_laws () =
  let mix = small_mix ~requests:4 () in
  let log = mix_log mix in
  let b =
    Fl.Build.profiling_build ~options ~shape:Fl.Build.Probes
      ~source:mix.W.Mix.mx_workload.D.w_source
  in
  let l = Fl.Build.correlate_labeled ~options ~shape:Fl.Build.Probes b log in
  let bundle = l.Fl.Build.lc_slices in
  (* Projection onto the tenant key: mass is conserved and blending the
     projection equals blending the original (merge associativity). *)
  let proj = P.Labels.project bundle ~keys:[ W.Mix.tenant_key ] in
  Alcotest.(check int64) "projection conserves mass"
    (P.Labels.total_weight bundle) (P.Labels.total_weight proj);
  Alcotest.(check string) "projection blend unchanged"
    (profile_sig (P.Labels.blend bundle))
    (profile_sig (P.Labels.blend proj));
  List.iter
    (fun s ->
      Alcotest.(check bool) "projected label has only tenant key" true
        (List.for_all
           (fun (k, _) -> String.equal k W.Mix.tenant_key)
           (LS.to_list s.P.Labels.sl_label)))
    (P.Labels.slices proj)

(* [Tenancy.collect]'s blend is the unlabeled fleet path on the same
   traffic: one [Sim.run] version whose cohort serves the mix's requests
   without labels, under the same instances, shards, duty, batch size and
   seed. Bytes differ by design (v3 label sections), so they are left
   out. *)
let test_blend_is_unlabeled_fleet () =
  let mix =
    W.Mix.make ~seed:5L ~requests:8
      [
        { W.Mix.t_name = "acme"; t_workload = W.Suite.adfinder; t_weight = 3 };
        { W.Mix.t_name = "zeta"; t_workload = W.Suite.adranker; t_weight = 1 };
      ]
  in
  let w =
    { mix.W.Mix.mx_workload with D.w_train = List.map fst mix.W.Mix.mx_requests }
  in
  let flat_sig = function
    | Some f -> profile_sig (P.Text_io.Probe_prof f)
    | None -> ""
  in
  List.iter
    (fun shape ->
      List.iter
        (fun jobs ->
          let what =
            Printf.sprintf "%s -j %d" (Fl.Build.shape_name shape) jobs
          in
          let ty =
            {
              Fl.Tenancy.ty_instances = 3;
              ty_shards = 2;
              ty_duty = 0.75;
              ty_batch_requests = 2;
              ty_jobs = jobs;
              ty_shape = shape;
              ty_options = options;
              ty_seed = 9L;
            }
          in
          let co = Fl.Tenancy.collect ty mix in
          let fs =
            Fl.Sim.run
              {
                Fl.Sim.f_shards = ty.Fl.Tenancy.ty_shards;
                f_duty = ty.Fl.Tenancy.ty_duty;
                f_batch_requests = ty.Fl.Tenancy.ty_batch_requests;
                f_request_copies = 1;
                f_jobs = jobs;
                f_shape = shape;
                f_options = options;
                f_seed = ty.Fl.Tenancy.ty_seed;
              }
              ~workload:w
              ~versions:
                [
                  {
                    Fl.Sim.v_id = 0;
                    v_source = w.D.w_source;
                    v_weight = 1L;
                    v_instances = ty.Fl.Tenancy.ty_instances;
                  };
                ]
          in
          let lc = co.Fl.Tenancy.co_labeled in
          Alcotest.(check string) (what ^ " profile")
            (profile_sig fs.Fl.Sim.fs_profile)
            (profile_sig lc.Fl.Build.lc_blend);
          Alcotest.(check string) (what ^ " flat")
            (flat_sig fs.Fl.Sim.fs_flat)
            (flat_sig lc.Fl.Build.lc_flat);
          Alcotest.(check (list int)) (what ^ " requests, sampled, samples, batches")
            [
              fs.Fl.Sim.fs_requests; fs.Fl.Sim.fs_sampled; fs.Fl.Sim.fs_samples;
              fs.Fl.Sim.fs_batches;
            ]
            [
              co.Fl.Tenancy.co_requests; co.Fl.Tenancy.co_sampled;
              co.Fl.Tenancy.co_samples; co.Fl.Tenancy.co_batches;
            ];
          Alcotest.(check int64) (what ^ " cycles") fs.Fl.Sim.fs_cycles
            co.Fl.Tenancy.co_cycles)
        [ 1; 2 ])
    [ Fl.Build.Lines; Fl.Build.Probes; Fl.Build.Ctx ]

let suite =
  ( "labels",
    [
      qcheck prop_intern_order_insensitive;
      qcheck prop_canonical_injective;
      qcheck prop_canonical_roundtrip;
      Alcotest.test_case "non-canonical label bytes rejected" `Quick
        test_non_canonical_rejected;
      Alcotest.test_case "projection and display forms" `Quick
        test_project_and_display;
      qcheck prop_labeled_roundtrip;
      qcheck prop_unlabeled_framing_unchanged;
      qcheck prop_slices_partition;
      qcheck prop_chunks_and_append_carry_labels;
      Alcotest.test_case "alternating labels in many chunks" `Quick
        test_alternating_labels_chunked;
      Alcotest.test_case "label-free log is one implicit slice" `Quick
        test_label_free_is_implicit_slice;
      Alcotest.test_case "label-section bit flips never mislabel" `Quick
        test_label_section_corruption;
      Alcotest.test_case "mix composes and runs" `Quick test_mix_composes;
      Alcotest.test_case "diurnal mixes drift" `Quick test_mix_diurnal_drifts;
      Alcotest.test_case "slice/merge identity, all shapes, -j 1/2/4" `Slow
        test_slice_merge_identity;
      Alcotest.test_case "single-tenant mix degenerates to one slice" `Quick
        test_single_tenant_degenerate;
      Alcotest.test_case "label-container projection and re-blend laws" `Quick
        test_labels_container_laws;
      Alcotest.test_case "tenancy blend is the unlabeled fleet path" `Quick
        test_blend_is_unlabeled_fleet;
    ] )
