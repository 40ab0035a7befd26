(* Fleet simulation: the skew-0 oracle (a sharded fleet at full duty
   merges to the single-instance profile byte-for-byte), job-count
   independence of the sharded reduction, collector routing/drain
   determinism, duty gating, profile injection through the plan, and a
   release-train smoke run. *)
module P = Csspgo_profile
module Vm = Csspgo_vm
module Core = Csspgo_core
module D = Core.Driver
module W = Csspgo_workloads
module Fl = Csspgo_fleet
module Obs = Csspgo_obs

let w = W.Suite.adfinder

let cfg = { Fl.Sim.default with Fl.Sim.f_batch_requests = 2 }

let version ?(id = 0) ?(n = 1) src =
  { Fl.Sim.v_id = id; v_source = src; v_weight = 1L; v_instances = n }

let run ?(cfg = cfg) n =
  Fl.Sim.run cfg ~workload:w ~versions:[ version ~n w.D.w_source ]

let test_skew0_identity_and_jobs () =
  let single = P.Text_io.to_string (run 1).Fl.Sim.fs_profile in
  let fleet = run 3 in
  Alcotest.(check string) "3 instances over 2 shards = 1 instance" single
    (P.Text_io.to_string fleet.Fl.Sim.fs_profile);
  Alcotest.(check int) "whole stream served once per cohort"
    (List.length w.D.w_train) fleet.Fl.Sim.fs_requests;
  List.iter
    (fun jobs ->
      let out = run ~cfg:{ cfg with Fl.Sim.f_jobs = jobs } 3 in
      Alcotest.(check string)
        (Printf.sprintf "-j %d reduction identical" jobs)
        single
        (P.Text_io.to_string out.Fl.Sim.fs_profile))
    [ 2; 4 ]

let test_duty_gating () =
  let out = run ~cfg:{ cfg with Fl.Sim.f_duty = 0.0 } 2 in
  Alcotest.(check int) "duty 0 samples nothing" 0 out.Fl.Sim.fs_sampled;
  Alcotest.(check int) "no batches shipped" 0 out.Fl.Sim.fs_batches;
  Alcotest.(check int64) "empty merged profile" 0L
    (P.Text_io.total_samples out.Fl.Sim.fs_profile);
  Alcotest.(check bool) "requests still served" true
    (Int64.compare out.Fl.Sim.fs_cycles 0L > 0)

let test_profile_injection () =
  let out = run 2 in
  let o =
    D.Plan.run
      (D.Plan.make_with_profile ~options:cfg.Fl.Sim.f_options
         ~profile:out.Fl.Sim.fs_profile ?flat:out.Fl.Sim.fs_flat w)
  in
  Alcotest.(check bool) "fleet profile drives a full build" true
    (Int64.compare o.D.o_eval.D.ev_cycles 0L > 0);
  Alcotest.(check bool) "fleet profile has samples" true
    (Int64.compare (P.Text_io.total_samples out.Fl.Sim.fs_profile) 0L > 0)

(* --- collector unit behavior (no VM involved) ------------------------ *)

let batch ?(version = 0) ?(seq = 0) ?(blob = Vm.Sample_log.encode (Vm.Sample_log.create ())) instance =
  {
    Fl.Instance.b_instance = instance;
    b_version = version;
    b_seq = seq;
    b_blob = blob;
    b_samples = 0;
    b_requests = 1;
  }

let test_collector_drain () =
  let c = Fl.Collector.create ~shards:2 () in
  Fl.Collector.ingest c (batch ~version:1 3);
  Fl.Collector.ingest c (batch ~version:0 ~seq:1 0);
  Fl.Collector.ingest c (batch ~version:0 2);
  let merged = Fl.Collector.drain ~jobs:1 c in
  Alcotest.(check (list int)) "versions sorted" [ 0; 1 ]
    (List.map (fun m -> m.Fl.Collector.m_version) merged);
  Alcotest.(check (list int)) "batches grouped per version" [ 2; 1 ]
    (List.map (fun m -> m.Fl.Collector.m_batches) merged);
  Alcotest.(check int) "second drain is empty" 0
    (List.length (Fl.Collector.drain ~jobs:1 c));
  (match Fl.Collector.create ~shards:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 shards accepted");
  let c2 = Fl.Collector.create ~shards:1 () in
  Fl.Collector.ingest c2 (batch ~blob:"not a CSLG blob" 5);
  match Fl.Collector.drain ~jobs:1 c2 with
  | exception Failure msg ->
      Alcotest.(check bool) "corrupt blob error names the instance" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "corrupt blob drained"

(* A zero batch size is refused by the caller's own validation, which runs
   before any profiling build, so the message names the caller and its
   field rather than [Instance.serve]'s. *)
let test_batch_size_validated () =
  let refuses what want f =
    match f () with
    | exception Invalid_argument msg -> Alcotest.(check string) what want msg
    | _ -> Alcotest.failf "%s accepted" what
  in
  refuses "Sim.run batch 0" "Sim.run: f_batch_requests must be positive" (fun () ->
      ignore (run ~cfg:{ cfg with Fl.Sim.f_batch_requests = 0 } 1));
  refuses "Tenancy.collect batch 0" "Tenancy.collect: ty_batch_requests must be positive"
    (fun () ->
      let mix =
        W.Mix.make ~seed:11L ~requests:2
          [ { W.Mix.t_name = "acme"; t_workload = w; t_weight = 1 } ]
      in
      ignore
        (Fl.Tenancy.collect { Fl.Tenancy.default with Fl.Tenancy.ty_batch_requests = 0 } mix))

let test_train_smoke () =
  let tcfg =
    {
      Fl.Train.default with
      Fl.Train.t_generations = 2;
      t_edits = 1;
      t_cohort = 1;
      t_overlap = false;
      t_fleet = cfg;
    }
  in
  let gens = Fl.Train.run tcfg w in
  Alcotest.(check int) "two generations" 2 (List.length gens);
  List.iter
    (fun (g : Fl.Train.generation) ->
      Alcotest.(check bool)
        (Printf.sprintf "gen %d speedup computed" g.Fl.Train.g_id)
        true (g.Fl.Train.g_speedup > 0.0))
    gens;
  let g1 = List.nth gens 1 in
  Alcotest.(check bool) "generation 1 carries history" true
    (g1.Fl.Train.g_carry <> None);
  Alcotest.(check bool) "generation 1 drifted" true
    (not (String.equal g1.Fl.Train.g_source (List.hd gens).Fl.Train.g_source))

(* One live registry with a fixed-clock trace reaches every layer a
   two-version window runs through: scheduler, collector, sharded
   correlation, the ctx shape's correlators and the stale matcher report
   to it, and the trace gets the fleet's phase spans. *)
let test_handle_reaches_layers () =
  let trace = Obs.Trace.create ~clock:(Obs.Clock.fixed ()) () in
  let obs = Obs.Metrics.create ~trace () in
  let drifted = (W.Drift.apply ~seed:3L ~edits:1 w.D.w_source).W.Drift.dr_source in
  ignore
    (Fl.Sim.run ~obs { cfg with Fl.Sim.f_jobs = 2 } ~workload:w
       ~versions:[ version w.D.w_source; version ~id:1 drifted ]);
  let names = List.map fst (Obs.Metrics.snapshot obs).Obs.Metrics.s_counters in
  List.iter
    (fun family ->
      Alcotest.(check bool) (family ^ "* counters") true
        (List.exists (String.starts_with ~prefix:family) names))
    [
      "fleet."; "collector."; "parcorr."; "sched."; "ctx."; "probe-corr.";
      "missing-frame."; "stale.";
    ];
  let events =
    Option.bind
      (Obs.Json.member "traceEvents" (Obs.Json.parse_exn (Obs.Trace.to_chrome_json trace)))
      Obs.Json.to_list
    |> Option.value ~default:[]
  in
  let spans =
    List.filter_map
      (fun e ->
        match Obs.Json.member "name" e with Some (Obs.Json.String n) -> Some n | _ -> None)
      events
  in
  List.iter
    (fun phase -> Alcotest.(check bool) (phase ^ " span") true (List.mem phase spans))
    [ "fleet-build"; "fleet-serve"; "fleet-drain"; "fleet-correlate"; "fleet-merge" ]

let suite =
  ( "fleet",
    [
      Alcotest.test_case "skew-0 identity, -j independence" `Quick
        test_skew0_identity_and_jobs;
      Alcotest.test_case "duty gating" `Quick test_duty_gating;
      Alcotest.test_case "merged profile drives a plan" `Quick
        test_profile_injection;
      Alcotest.test_case "collector routing and drain" `Quick
        test_collector_drain;
      Alcotest.test_case "batch size validated" `Quick test_batch_size_validated;
      Alcotest.test_case "release-train smoke" `Quick test_train_smoke;
      Alcotest.test_case "one handle reaches every layer" `Quick
        test_handle_reaches_layers;
    ] )
