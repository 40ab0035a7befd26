(* Streaming sample pipeline: the correlation kernel against itself, plan
   identity across domain counts, and sink scratch-reuse safety.

   Every PGO variant's canonical Text_io dump must be the same whether the
   kernel takes the range aggregate and missing-frame table its tee sink
   built during the profiling run or replays both from the recorded log,
   and the same serially and across domain counts. *)
module F = Csspgo_frontend
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
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

(* --- byte-identity oracle: recorded vs replayed ----------------------- *)

let test_stream_oracle () =
  List.iter
    (fun seed ->
      let w = gen_workload seed in
      List.iter
        (fun v ->
          let recorded = D.profile_pipeline_texts ~options ~replay:false v w in
          let replayed = D.profile_pipeline_texts ~options ~replay:true v w in
          let label tag =
            Printf.sprintf "seed %Ld %s %s" seed (D.variant_name v) tag
          in
          Alcotest.(check int)
            (label "profile count")
            (List.length recorded) (List.length replayed);
          List.iter2
            (fun (tr, xr) (tp, xp) ->
              Alcotest.(check string) (label "tag") tr tp;
              Alcotest.(check string) (label tr) xr xp)
            recorded replayed)
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
  Cg.Emit.emit ~options:Cg.Emit.default_options p

let pmu = Some { Vm.Machine.default_pmu with Vm.Machine.sample_period = 101 }

(* An aliasing sink — the bug class debug_poison exists to catch: it stores
   the scratch arrays instead of copying. Every stored buffer must read as
   pure poison afterwards, so the stale data can never be silently used. *)
let test_debug_poison_catches_aliasing () =
  let bin = build_probed loop_src in
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

(* A copying sink under poisoning sees exactly the samples a recording
   sink logs without poisoning: the VM is deterministic, so two runs
   observe the same stream. *)
let test_copying_sink_matches_recorded () =
  let bin = build_probed loop_src in
  let log = Vm.Sample_log.create () in
  ignore (Vm.Machine.run ~pmu ~sink:(Vm.Sample_log.sink log) bin ~entry:"main" ~args:[ 300L ]);
  let copy acc ~lbr ~lbr_len ~stack ~stack_len =
    acc := (Array.sub lbr 0 (2 * lbr_len), Array.sub stack 0 stack_len) :: !acc
  in
  let recorded = ref [] and copied = ref [] in
  Vm.Sample_log.iter log (copy recorded);
  let sink = { Vm.Machine.on_sample = copy copied; on_labels = Vm.Machine.no_labels } in
  let r =
    Vm.Machine.run ~pmu ~sink ~debug_poison:true bin ~entry:"main" ~args:[ 300L ]
  in
  Alcotest.(check bool) "samples taken" true (!copied <> []);
  Alcotest.(check int) "sample counts" (List.length !recorded) (List.length !copied);
  Alcotest.(check int) "n_samples matches" (Vm.Sample_log.n_samples log)
    r.Vm.Machine.n_samples;
  List.iter2
    (fun (lbr, stack) (lbr', stack') ->
      Alcotest.(check (array int)) "lbr equal" lbr lbr';
      Alcotest.(check (array int)) "stack equal" stack stack')
    !recorded !copied

let suite =
  ( "pipeline",
    [
      Alcotest.test_case "stream oracle (3 seeds x 5 variants)" `Slow
        test_stream_oracle;
      Alcotest.test_case "plan identity at -j 1/2/4" `Slow
        test_plan_identity_across_jobs;
      Alcotest.test_case "debug poison catches aliasing" `Quick
        test_debug_poison_catches_aliasing;
      Alcotest.test_case "copying sink matches recorded log" `Quick
        test_copying_sink_matches_recorded;
    ] )
