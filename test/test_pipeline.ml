(* Streaming sample pipeline: byte-identity against the materialized path,
   sink scratch-reuse safety, and a coarse throughput-regression guard.

   The refactor's contract is that the zero-materialization pipeline (PMU
   sink → dense-index aggregation → log-replay context reconstruction) is
   observationally identical to the old sample-list pipeline: every PGO
   variant's canonical Text_io dump must match byte for byte, serially and
   across domain counts. *)
module F = Csspgo_frontend
module Ir = Csspgo_ir
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module Pg = Csspgo_profgen
module P = Csspgo_profile
module Core = Csspgo_core
module O = Csspgo_orchestrator
module W = Csspgo_workloads
module D = Core.Driver

(* Tiny generated programs finish in a handful of default-period samples;
   sample densely so every profile has real weight (same knob the fuzz
   campaign uses). *)
let options =
  {
    D.default_options with
    D.pmu = { Vm.Machine.default_pmu with Vm.Machine.sample_period = 101 };
  }

let gen_workload seed =
  let src = W.Gen.random_source ~n_funcs:4 ~size:2 ~seed () in
  let spec =
    { D.rs_args = [ Int64.of_int (Int64.to_int seed land 0xff); 17L ]; rs_globals = [] }
  in
  {
    D.w_name = Printf.sprintf "pipe-%Ld" seed;
    w_source = src;
    w_entry = "main";
    w_train = List.init 8 (fun _ -> spec);
    w_eval = [ spec ];
  }

let all_variants =
  [ D.Nopgo; D.Instr_pgo; D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full ]

(* --- byte-identity oracle: streaming vs materialized ----------------- *)

let test_stream_oracle () =
  List.iter
    (fun seed ->
      let w = gen_workload seed in
      List.iter
        (fun v ->
          let mat = D.profile_pipeline_texts ~options ~streaming:false v w in
          let str = D.profile_pipeline_texts ~options ~streaming:true v w in
          let label tag =
            Printf.sprintf "seed %Ld %s %s" seed (D.variant_name v) tag
          in
          Alcotest.(check int)
            (label "profile count")
            (List.length mat) (List.length str);
          List.iter2
            (fun (tm, xm) (ts, xs) ->
              Alcotest.(check string) (label "tag") tm ts;
              Alcotest.(check string) (label tm) xm xs)
            mat str)
        all_variants)
    [ 1L; 2L; 3L ]

(* --- plan-level identity across domain counts ------------------------ *)

(* Hooks that run every stage thunk directly but record the serialized
   correlate output — the canonical profile bytes each plan produced. *)
let recording_hooks tbl mutex =
  {
    D.Plan.memo =
      (fun ~kind ~key ~ser ~de:_ f ->
        let v = f () in
        if String.equal kind "correlate" then begin
          Mutex.lock mutex;
          Hashtbl.replace tbl (String.concat "|" key) (ser v);
          Mutex.unlock mutex
        end;
        v);
    span = (fun ~name:_ f -> f ());
    obs = Csspgo_obs.Metrics.null;
    jobs = 1;
  }

let test_plan_identity_across_jobs () =
  let w = gen_workload 5L in
  let run_at jobs =
    let tbl = Hashtbl.create 32 in
    let mutex = Mutex.create () in
    let hooks = recording_hooks tbl mutex in
    let plans = List.map (fun v -> D.Plan.make ~options ~variant:v w) all_variants in
    let outcomes = O.Scheduler.map ~jobs (fun pl -> D.Plan.run ~hooks pl) plans in
    let rows =
      List.map2
        (fun v (o : D.outcome) ->
          (D.variant_name v, o.D.o_eval.D.ev_cycles, o.D.o_profile_size))
        all_variants outcomes
    in
    let profiles =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
    in
    (rows, profiles)
  in
  let ref_rows, ref_profiles = run_at 1 in
  Alcotest.(check bool) "correlate outputs recorded" true (ref_profiles <> []);
  List.iter
    (fun jobs ->
      let rows, profiles = run_at jobs in
      Alcotest.(check bool)
        (Printf.sprintf "outcomes identical at -j %d" jobs)
        true (rows = ref_rows);
      Alcotest.(check bool)
        (Printf.sprintf "profile bytes identical at -j %d" jobs)
        true (profiles = ref_profiles))
    [ 2; 4 ]

(* --- sink scratch-reuse safety --------------------------------------- *)

let loop_src =
  "fn helper(x) { let s = 0; let i = 0; while (i < 40) { s = s + x * 3; i = i + 1; } \
   return s; }\n\
   fn mid(a) { return helper(a) + helper(a + 1); }\n\
   fn main(n) { let t = 0; let k = 0; while (k < n) { t = t + mid(k); k = k + 1; } \
   return t; }"

let build_probed src =
  let p = F.Lower.compile src in
  Core.Pseudo_probe.insert p;
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  (p, Cg.Emit.emit ~options:Cg.Emit.default_options p)

let pmu = Some { Vm.Machine.default_pmu with Vm.Machine.sample_period = 101 }

(* An aliasing sink — the bug class debug_poison exists to catch: it stores
   the scratch arrays instead of copying. Every stored buffer must read as
   pure poison afterwards, so the stale data can never be silently used. *)
let test_debug_poison_catches_aliasing () =
  let _, bin = build_probed loop_src in
  let stored = ref [] in
  let sink =
    {
      Vm.Machine.on_sample =
        (fun ~lbr ~lbr_len ~stack ~stack_len ->
          stored := (lbr, lbr_len, stack, stack_len) :: !stored);
      on_labels = Vm.Machine.no_labels;
    }
  in
  let r =
    Vm.Machine.run ~pmu ~sink ~debug_poison:true bin ~entry:"main" ~args:[ 300L ]
  in
  Alcotest.(check bool) "samples taken" true (r.Vm.Machine.n_samples > 0);
  Alcotest.(check int) "no materialized samples in sink mode" 0
    (List.length r.Vm.Machine.samples);
  List.iter
    (fun (lbr, lbr_len, stack, stack_len) ->
      for i = 0 to (2 * lbr_len) - 1 do
        if lbr.(i) <> min_int then
          Alcotest.fail "aliased lbr scratch survived un-poisoned"
      done;
      for i = 0 to stack_len - 1 do
        if stack.(i) <> min_int then
          Alcotest.fail "aliased stack scratch survived un-poisoned"
      done)
    !stored

(* A copying sink under poisoning sees exactly the collect path's samples:
   the VM is deterministic, so two runs observe the same stream. *)
let test_copying_sink_matches_collect () =
  let _, bin = build_probed loop_src in
  let collected =
    (Vm.Machine.run ~pmu bin ~entry:"main" ~args:[ 300L ]).Vm.Machine.samples
  in
  let copied = ref [] in
  let sink =
    {
      Vm.Machine.on_sample =
        (fun ~lbr ~lbr_len ~stack ~stack_len ->
          copied :=
            {
              Vm.Machine.s_lbr = Vm.Machine.lbr_pairs lbr lbr_len;
              s_stack = Array.sub stack 0 stack_len;
            }
            :: !copied);
      on_labels = Vm.Machine.no_labels;
    }
  in
  let r =
    Vm.Machine.run ~pmu ~sink ~debug_poison:true bin ~entry:"main" ~args:[ 300L ]
  in
  let copied = List.rev !copied in
  Alcotest.(check int) "sample counts" (List.length collected) (List.length copied);
  Alcotest.(check int) "n_samples matches" (List.length collected)
    r.Vm.Machine.n_samples;
  List.iter2
    (fun (a : Vm.Machine.sample) (b : Vm.Machine.sample) ->
      Alcotest.(check bool) "lbr equal" true (a.Vm.Machine.s_lbr = b.Vm.Machine.s_lbr);
      Alcotest.(check bool) "stack equal" true
        (a.Vm.Machine.s_stack = b.Vm.Machine.s_stack))
    collected copied

(* --- coarse throughput-regression guard ------------------------------ *)

(* Assertion-only sibling of `bench/main.exe pipeline`: the streaming
   aggregation + reconstruction must never fall behind the materialized
   path by more than 2x. Timed over log replay so the VM run is excluded;
   min-of-3 to shrug off scheduler noise. *)
let test_streaming_not_slower () =
  let refp, bin = build_probed loop_src in
  let names = Ir.Guid.Tbl.create 16 in
  let checksums = Ir.Guid.Tbl.create 16 in
  Ir.Program.iter_funcs
    (fun f ->
      Ir.Guid.Tbl.replace names f.Ir.Func.guid f.Ir.Func.name;
      Ir.Guid.Tbl.replace checksums f.Ir.Func.guid f.Ir.Func.checksum)
    refp;
  let name_of g = Ir.Guid.Tbl.find_opt names g in
  let checksum_of g = Option.value (Ir.Guid.Tbl.find_opt checksums g) ~default:0L in
  let log = Vm.Sample_log.create () in
  ignore
    (Vm.Machine.run ~pmu ~sink:(Vm.Sample_log.sink log) bin ~entry:"main"
       ~args:[ 2000L ]);
  Alcotest.(check bool) "enough samples" true (Vm.Sample_log.n_samples log > 500);
  let time_min f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Sys.time () in
      f ();
      let dt = Sys.time () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let t_mat =
    time_min (fun () ->
        let samples = Vm.Sample_log.to_samples log in
        let agg = Pg.Ranges.aggregate samples in
        let missing = Core.Missing_frame.build bin samples in
        ignore (Core.Probe_corr.correlate_agg ~name_of ~checksum_of bin agg);
        ignore
          (Core.Ctx_reconstruct.reconstruct ~name_of ~missing ~checksum_of bin samples))
  in
  let t_stream =
    time_min (fun () ->
        let ix = Pg.Bindex.create bin in
        let agg = Pg.Ranges.create () in
        let mb = Core.Missing_frame.start ix in
        Vm.Sample_log.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
            Pg.Ranges.feed agg ~lbr ~lbr_len;
            Core.Missing_frame.feed mb ~lbr ~lbr_len);
        let missing = Core.Missing_frame.finish mb in
        ignore (Core.Probe_corr.correlate_agg ~name_of ~index:ix ~checksum_of bin agg);
        let st = Core.Ctx_reconstruct.start ~name_of ~missing ~checksum_of ix in
        Vm.Sample_log.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
            Core.Ctx_reconstruct.feed st ~lbr ~lbr_len ~stack ~stack_len);
        ignore (Core.Ctx_reconstruct.finish st))
  in
  Alcotest.(check bool)
    (Printf.sprintf "streaming (%.4fs) within 2x of materialized (%.4fs)" t_stream
       t_mat)
    true
    (t_stream <= (2.0 *. t_mat) +. 0.02)

let suite =
  ( "pipeline",
    [
      Alcotest.test_case "stream oracle (3 seeds x 5 variants)" `Slow
        test_stream_oracle;
      Alcotest.test_case "plan identity at -j 1/2/4" `Slow
        test_plan_identity_across_jobs;
      Alcotest.test_case "debug poison catches aliasing" `Quick
        test_debug_poison_catches_aliasing;
      Alcotest.test_case "copying sink matches collect" `Quick
        test_copying_sink_matches_collect;
      Alcotest.test_case "streaming within 2x of materialized" `Quick
        test_streaming_not_slower;
    ] )
