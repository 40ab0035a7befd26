(* Streaming sample pipeline: the Driver's sampled profiles against the
   fleet's record-then-correlate road, plan identity across domain counts,
   and sink scratch-reuse safety.

   Every sampled variant's Correlate stage must give the same canonical
   Text_io dumps as [Fleet.Build.correlate] on a log recorded on
   [Fleet.Build.profiling_build], and every plan the same serially and
   across domain counts. *)
module F = Csspgo_frontend
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module Core = Csspgo_core
module W = Csspgo_workloads
module Fl = Csspgo_fleet
module P = Csspgo_profile
module D = Core.Driver

(* The fuzz campaign's dense sampling period. The generated programs
   below still finish in about 50 cycles, under one period, so their
   sampled profiles come out empty; the suite workloads carry the
   profile checks. *)
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

(* --- the Driver's Correlate stage against the fleet's ---------------- *)

(* Every "correlate" memo value of the variant's plan as canonical text,
   in the order the plan asks for them: the line or probe profile, or the
   context trie and then its flat baseline. A cache stores the context
   value as the marshaled (text, stats) pair. *)
let driver_texts ~options v w =
  let kept = ref [] in
  let memo ~kind ~key:_ ~ser ~de:_ f =
    let x = f () in
    if String.equal kind "correlate" then kept := ser x :: !kept;
    x
  in
  let o =
    D.Plan.run ~hooks:{ D.Plan.default_hooks with D.Plan.memo }
      (D.Plan.make ~options ~variant:v w)
  in
  let texts =
    match (v, List.rev !kept) with
    | D.Csspgo_full, ctx :: rest ->
        let text, (_ : Core.Ctx_reconstruct.stats) = Marshal.from_string ctx 0 in
        text :: rest
    | _, texts -> texts
  in
  (o, texts)

(* The same profiles from the fleet's road: its profiling build, the
   training runs recorded into one log, one serial kernel run. *)
let fleet_texts ~options shape (w : D.workload) =
  let b = Fl.Build.profiling_build ~options ~shape ~source:w.D.w_source in
  let p, flat = Fl.Build.correlate ~options ~shape b (Fl.Build.record ~options b w) in
  P.Text_io.to_string p
  :: Option.to_list
       (Option.map (fun f -> P.Text_io.to_string (P.Text_io.Probe_prof f)) flat)

let sampled =
  [
    (D.Autofdo, Fl.Build.Lines);
    (D.Csspgo_probe_only, Fl.Build.Probes);
    (D.Csspgo_full, Fl.Build.Ctx);
  ]

(* The generated programs are too short to be sampled at all, so the
   suite workloads carry the weight: haas recurses, and adfinder built
   without inlining keeps its tail calls, so its missing-frame table has
   edges and gaps get resolved. *)
let no_inline =
  {
    D.default_options with
    D.opt_profiling = { Opt.Config.o2_nopgo with inline_mode = Opt.Config.Inline_none };
  }

let test_driver_matches_fleet () =
  let cases =
    List.map (fun seed -> (options, gen_workload seed)) [ 1L; 2L; 3L ]
    @ [ (D.default_options, W.Suite.haas); (no_inline, W.Suite.adfinder) ]
  in
  List.iter
    (fun (options, (w : D.workload)) ->
      List.iter
        (fun (v, shape) ->
          let label = Printf.sprintf "%s %s" w.D.w_name (D.variant_name v) in
          let o, driver = driver_texts ~options v w in
          Alcotest.(check (list string)) label (fleet_texts ~options shape w) driver;
          if w == W.Suite.haas || w == W.Suite.adfinder then
            Alcotest.(check bool) (label ^ " sampled") false (List.mem "" driver);
          if w == W.Suite.adfinder && v = D.Csspgo_full then
            Alcotest.(check bool) "adfinder resolves tail-call gaps" true
              ((Option.get o.D.o_recon_stats).Core.Ctx_reconstruct.st_gaps_resolved > 0))
        sampled)
    cases

(* --- plan-level identity across domain counts ------------------------ *)

(* Hooks that run every stage thunk directly but record the serialized
   correlate output — the canonical profile bytes each plan produced. A
   context trie is cached as the marshaled (text, stats) pair; its text
   is recorded. *)
let recording_hooks tbl mutex =
  {
    D.Plan.memo =
      (fun ~kind ~key ~ser ~de:_ f ->
        let v = f () in
        if String.equal kind "correlate" then begin
          let s = ser v in
          let text =
            if List.mem "ctx" key then
              fst (Marshal.from_string s 0 : string * Core.Ctx_reconstruct.stats)
            else s
          in
          Mutex.lock mutex;
          Hashtbl.replace tbl (String.concat "|" key) text;
          Mutex.unlock mutex
        end;
        v);
    span = (fun ~name:_ f -> f ());
    obs = Csspgo_obs.Metrics.null;
    jobs = 1;
  }

(* adfinder samples at the default period, so every sampled variant's
   correlate output has content to compare. *)
let test_plan_identity_across_jobs () =
  let w = W.Suite.adfinder and options = D.default_options in
  let run_at jobs =
    let tbl = Hashtbl.create 32 in
    let mutex = Mutex.create () in
    let hooks = recording_hooks tbl mutex in
    let plans = List.map (fun v -> D.Plan.make ~options ~variant:v w) all_variants in
    let outcomes =
      Csspgo_sched.Scheduler.map ~jobs (fun pl -> D.Plan.run ~hooks pl) plans
    in
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
    (fun (key, text) ->
      Alcotest.(check bool) (Printf.sprintf "%s not empty" key) true (text <> ""))
    ref_profiles;
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
      Alcotest.test_case "Driver profiles = Fleet.Build's" `Slow
        test_driver_matches_fleet;
      Alcotest.test_case "plan identity at -j 1/2/4" `Slow
        test_plan_identity_across_jobs;
      Alcotest.test_case "debug poison catches aliasing" `Quick
        test_debug_poison_catches_aliasing;
      Alcotest.test_case "copying sink matches recorded log" `Quick
        test_copying_sink_matches_recorded;
    ] )
