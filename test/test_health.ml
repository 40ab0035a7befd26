(* Windowed health telemetry: Series delta windows, retention and rates,
   QCheck'd merge laws; Health indicator scoring from synthetic snapshots,
   the one-alert-per-plateau EWMA contract; OpenMetrics exposition shape;
   and the end-to-end contract — a health-instrumented release train on
   the fixed clock reports byte-identically at -j 1/2/4 and flags an
   injected mid-train drift spike with exactly one crit alert. *)
module Obs = Csspgo_obs
module M = Obs.Metrics
module S = Obs.Series
module H = Obs.Health
module J = Obs.Json
module Fl = Csspgo_fleet
module Core = Csspgo_core
module D = Core.Driver
module W = Csspgo_workloads

let snap ?(gauges = []) ?(hists = []) counters =
  {
    M.s_counters = List.sort compare counters;
    s_gauges = List.sort compare gauges;
    s_histograms = List.sort compare hists;
  }

(* --- series ----------------------------------------------------------- *)

let test_series_windows () =
  let s = S.create () in
  let h c sum = { M.h_count = c; h_sum = sum; h_nonzero = [] } in
  let w0 =
    S.record s
      (snap
         [ ("a", 5); ("sched.steals", 3) ]
         ~gauges:[ ("g", 7) ]
         ~hists:[ ("lat", h 2 10) ])
  in
  Alcotest.(check int) "first index" 0 w0.S.w_index;
  Alcotest.(check int64) "first timestamp (fixed clock tick 0)" 0L w0.S.w_at_us;
  Alcotest.(check int64) "first duration" 0L w0.S.w_dur_us;
  Alcotest.(check bool) "first deltas from zero, sched. dropped" true
    (w0.S.w_counters = [ ("a", 5); ("lat/count", 2); ("lat/sum", 10) ]);
  Alcotest.(check bool) "gauge reading" true (w0.S.w_gauges = [ ("g", 7) ]);
  let w1 =
    S.record s
      (snap
         [ ("a", 5); ("b", 2); ("sched.steals", 9) ]
         ~gauges:[ ("g", 4) ]
         ~hists:[ ("lat", h 3 15) ])
  in
  Alcotest.(check int) "second index" 1 w1.S.w_index;
  Alcotest.(check int64) "fixed clock ticks by 1" 1L w1.S.w_at_us;
  Alcotest.(check int64) "duration is one tick" 1L w1.S.w_dur_us;
  (* zero deltas are elided; histogram deltas flatten to /count, /sum *)
  Alcotest.(check bool) "second window deltas" true
    (w1.S.w_counters = [ ("b", 2); ("lat/count", 1); ("lat/sum", 5) ]);
  Alcotest.(check bool) "gauge is a reading, not a delta" true
    (w1.S.w_gauges = [ ("g", 4) ]);
  (* per-second rate over a 1 us window *)
  Alcotest.(check bool) "rate b" true (S.rate w1 "b" = Some 2e6);
  Alcotest.(check bool) "rate of absent counter" true (S.rate w1 "zz" = None);
  Alcotest.(check bool) "rate of zero-duration window" true
    (S.rate w0 "a" = None)

let test_series_retention () =
  let s = S.create ~retain:2 () in
  for i = 1 to 4 do
    ignore (S.record s (snap [ ("a", 10 * i) ]))
  done;
  let ws = S.windows s in
  Alcotest.(check (list int)) "newest two windows kept" [ 2; 3 ]
    (List.map (fun w -> w.S.w_index) ws);
  Alcotest.(check int) "total counts evictions" 4 (S.total s);
  Alcotest.(check int) "evicted" 2 (S.evicted s)

let sj s = J.to_string (S.to_json s)

let series_gen =
  QCheck.(
    let name = oneofl [ "a"; "b"; "c"; "sched.x" ] in
    let assoc =
      map
        (List.sort_uniq (fun (a, _) (b, _) -> compare a b))
        (small_list (pair name (int_range 0 1000)))
    in
    map
      (fun rows ->
        let s = S.create () in
        List.iter
          (fun (cs, gs) -> ignore (S.record s (snap cs ~gauges:gs)))
          rows;
        s)
      (small_list (pair assoc assoc)))

let prop_series_merge_laws =
  QCheck.Test.make ~name:"series merge is commutative/associative/identity"
    ~count:200
    QCheck.(
      set_print
        (fun (a, b, c) -> Printf.sprintf "%s\n%s\n%s" (sj a) (sj b) (sj c))
        (triple series_gen series_gen series_gen))
    (fun (s1, s2, s3) ->
      String.equal (sj (S.merge s1 s2)) (sj (S.merge s2 s1))
      && String.equal
           (sj (S.merge (S.merge s1 s2) s3))
           (sj (S.merge s1 (S.merge s2 s3)))
      && String.equal (sj (S.merge s1 (S.create ()))) (sj s1))

(* --- health scoring --------------------------------------------------- *)

let test_health_scoring () =
  let t = H.create () in
  let wr0 =
    H.observe t
      (snap
         [
           ("collector.batches", 100);
           ("collector.dropped-blobs", 0);
           ("probe-corr.ranges", 100);
           ("probe-corr.ranges-unmatched", 1);
           ("ctx.samples", 100);
           ("ctx.inferred-frames", 10);
           ("stale.counts-recovered", 90);
           ("stale.counts-dropped", 10);
         ])
  in
  Alcotest.(check bool) "healthy window scores ok" true (wr0.H.wr_level = H.Ok);
  Alcotest.(check bool) "no alerts on the baseline window" true
    (wr0.H.wr_alerts = []);
  let level name wr =
    (List.find (fun i -> i.H.in_name = name) wr.H.wr_indicators).H.in_level
  in
  Alcotest.(check bool) "overlap without data scores ok" true
    (level "profile.overlap" wr0 = H.Ok
    && (List.find (fun i -> i.H.in_name = "profile.overlap") wr0.H.wr_indicators)
         .H.in_value = None);
  (* second window: every indicator regresses past a threshold *)
  let wr1 =
    H.observe ~overlap:0.92 t
      (snap
         [
           ("collector.batches", 200);
           ("collector.dropped-blobs", 20);
           ("probe-corr.ranges", 200);
           ("probe-corr.ranges-unmatched", 16);
           ("ctx.samples", 200);
           ("ctx.inferred-frames", 80);
           ("stale.counts-recovered", 100);
           ("stale.counts-dropped", 60);
         ])
  in
  (* deltas: drop 20/100 crit; hit 85/100 warn; inferred 70/100 crit;
     recovery 10/60 crit; overlap 0.92 warn *)
  Alcotest.(check bool) "drop-rate crit" true
    (level "collector.drop-rate" wr1 = H.Crit);
  Alcotest.(check bool) "hit-rate warn" true (level "corr.hit-rate" wr1 = H.Warn);
  Alcotest.(check bool) "inferred-share crit" true
    (level "ctx.inferred-share" wr1 = H.Crit);
  Alcotest.(check bool) "recovery crit" true
    (level "stale.recovery" wr1 = H.Crit);
  Alcotest.(check bool) "overlap warn" true
    (level "profile.overlap" wr1 = H.Warn);
  Alcotest.(check bool) "window level is the worst indicator" true
    (wr1.H.wr_level = H.Crit);
  (* baseline-initialized indicators regressed beyond the tolerance and alert;
     overlap saw its first value, so its baseline initializes silently *)
  let alerted = List.map (fun a -> a.H.al_indicator) wr1.H.wr_alerts in
  Alcotest.(check (list string)) "alerts in spec order, overlap silent"
    [
      "collector.drop-rate"; "corr.hit-rate"; "ctx.inferred-share";
      "stale.recovery";
    ]
    alerted;
  let rep = H.report t in
  Alcotest.(check bool) "report level" true (rep.H.hp_level = H.Crit);
  Alcotest.(check int) "report collects window alerts" 4
    (List.length rep.H.hp_alerts);
  (* canonical JSON reparses as a fixed point *)
  let doc = J.to_string (H.report_to_json rep) in
  Alcotest.(check string) "report JSON fixed point" doc
    (J.to_string (J.parse_exn doc))

let test_health_plateau_alerts_once () =
  let t = H.create () in
  let ob v = H.observe ~overlap:v t (snap []) in
  ignore (ob 0.99);
  (* baseline init *)
  ignore (ob 0.99);
  let drop = ob 0.5 in
  Alcotest.(check int) "transition alerts" 1 (List.length drop.H.wr_alerts);
  Alcotest.(check bool) "alert carries value and baseline" true
    (match drop.H.wr_alerts with
    | [ a ] ->
        a.H.al_level = H.Crit && a.H.al_value = 0.5
        && a.H.al_baseline > 0.98 && a.H.al_indicator = "profile.overlap"
    | _ -> false);
  (* the plateau: baseline snapped to the degraded value, no re-alerts *)
  let p1 = ob 0.5 and p2 = ob 0.5 in
  Alcotest.(check int) "plateau window 1 silent" 0 (List.length p1.H.wr_alerts);
  Alcotest.(check int) "plateau window 2 silent" 0 (List.length p2.H.wr_alerts);
  (* recovery is the good direction — never an alert *)
  let up = ob 0.99 in
  Alcotest.(check int) "recovery silent" 0 (List.length up.H.wr_alerts);
  Alcotest.(check bool) "plateau windows still score crit" true
    (p1.H.wr_level = H.Crit && p2.H.wr_level = H.Crit)

let test_health_alert_trace_instants () =
  let trace = Obs.Trace.create ~clock:(Obs.Clock.fixed ()) () in
  let track = Obs.Trace.track trace ~tid:0 ~name:"health" in
  let t = H.create ~track () in
  ignore (H.observe ~overlap:0.99 t (snap []));
  ignore (H.observe ~overlap:0.5 t (snap []));
  (* one instant for the single alert; the thread-name metadata record is
     synthesized at export time, so the chrome doc carries two entries *)
  Alcotest.(check int) "one instant per alert" 1 (Obs.Trace.n_events trace);
  let j = J.parse_exn (Obs.Trace.to_chrome_json trace) in
  match Option.bind (J.member "traceEvents" j) J.to_list with
  | Some evs ->
      Alcotest.(check int) "metadata + instant" 2 (List.length evs);
      Alcotest.(check bool) "typed alert name" true
        (List.exists
           (fun e -> J.member "name" e = Some (J.String "health.crit:profile.overlap"))
           evs)
  | None -> Alcotest.fail "traceEvents missing"

(* --- OpenMetrics exposition ------------------------------------------- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_export_snapshot () =
  let m = M.create () in
  M.bump (M.counter m "vm.runs") 6;
  M.observe_gauge (M.gauge m "sched.queue-depth") 3;
  M.observe (M.histogram m "ctx.context-depth") 5;
  let text = Obs.Export.snapshot (M.snapshot m) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposition has %S" needle) true
        (contains text needle))
    [
      "# TYPE csspgo_vm_runs counter";
      "csspgo_vm_runs_total 6";
      "# TYPE csspgo_sched_queue_depth gauge";
      "csspgo_sched_queue_depth 3";
      "# TYPE csspgo_ctx_context_depth histogram";
      "csspgo_ctx_context_depth_bucket{le=\"+Inf\"} 1";
      "csspgo_ctx_context_depth_sum 5";
      "csspgo_ctx_context_depth_count 1";
    ];
  Alcotest.(check bool) "ends with # EOF" true
    (let eof = "# EOF\n" in
     String.length text >= String.length eof
     && String.sub text (String.length text - String.length eof)
          (String.length eof)
        = eof)

let test_export_series () =
  let s = S.create () in
  ignore (S.record s (snap [ ("vm.runs", 2) ]));
  ignore (S.record s (snap [ ("vm.runs", 5) ]));
  let text = Obs.Export.series s in
  (* deltas re-accumulate into cumulative timestamped points *)
  Alcotest.(check bool) "first point" true
    (contains text "csspgo_vm_runs_total 2 0.000000");
  Alcotest.(check bool) "second point is cumulative" true
    (contains text "csspgo_vm_runs_total 5 0.000001");
  Alcotest.(check bool) "series ends with # EOF" true (contains text "# EOF")

(* --- end to end: health-instrumented release train -------------------- *)

let train_workload = W.Suite.adfinder

let train_config ?(generations = 3) ?(schedule = []) jobs =
  {
    Fl.Train.t_generations = generations;
    t_edits = 2;
    t_edit_schedule = schedule;
    t_skew = 1;
    t_cohort = 2;
    t_overlap = false;
    t_fleet =
      { Fl.Sim.default with Fl.Sim.f_request_copies = 2; f_jobs = jobs };
  }

let run_train ?generations ?schedule jobs w =
  let metrics = M.create () in
  let series = S.create () in
  let tracker = H.create () in
  let gens =
    Fl.Train.run ~obs:metrics ~series ~health:tracker
      (train_config ?generations ?schedule jobs)
      w
  in
  let rep = H.report tracker in
  (gens, rep, J.to_string (H.report_to_json rep), sj series)

let test_train_identity_across_jobs () =
  let w = train_workload in
  let gens, rep, ref_rep, ref_series = run_train 1 w in
  Alcotest.(check int) "one health window per generation" 3
    (List.length rep.H.hp_windows);
  List.iter
    (fun (g : Fl.Train.generation) ->
      match g.Fl.Train.g_health with
      | Some wr -> Alcotest.(check int) "window index" g.Fl.Train.g_id wr.H.wr_index
      | None -> Alcotest.fail "generation missing its health window")
    gens;
  List.iter
    (fun jobs ->
      let _, _, rep_j, series_j = run_train jobs w in
      Alcotest.(check string)
        (Printf.sprintf "report bytes identical at -j %d" jobs)
        ref_rep rep_j;
      Alcotest.(check string)
        (Printf.sprintf "series bytes identical at -j %d" jobs)
        ref_series series_j)
    [ 2; 4 ]

(* A collection window closed without a caller registry still observes
   the fleet: [Sim.run] reports to a private live registry. *)
let test_sim_window_without_registry () =
  let series = S.create () and tracker = H.create () in
  let version =
    { Fl.Sim.v_id = 0; v_source = train_workload.D.w_source; v_weight = 1L; v_instances = 1 }
  in
  ignore
    (Fl.Sim.run ~series ~health:tracker Fl.Sim.default ~workload:train_workload
       ~versions:[ version ]);
  (match S.windows series with
  | [ win ] ->
      let samples =
        Option.value ~default:0 (List.assoc_opt "fleet.samples" win.S.w_counters)
      in
      Alcotest.(check bool) "series window saw fleet samples" true (samples > 0)
  | ws -> Alcotest.failf "%d series windows, expected 1" (List.length ws));
  match (H.report tracker).H.hp_windows with
  | [ wr ] ->
      let hit = List.find (fun i -> i.H.in_name = "corr.hit-rate") wr.H.wr_indicators in
      Alcotest.(check bool) "health window saw correlation" true (hit.H.in_value <> None)
  | ws -> Alcotest.failf "%d health windows, expected 1" (List.length ws)

let test_train_drift_spike_alert () =
  (* uniform 2-edit drift with a 4-edit spike into generation 2: the EWMA
     baseline absorbs the steady drift and flags only the spike window *)
  let _, rep, _, _ =
    run_train ~generations:4 ~schedule:[ 2; 4 ] 1 train_workload
  in
  let crits = List.filter (fun a -> a.H.al_level = H.Crit) rep.H.hp_alerts in
  Alcotest.(check int) "exactly one crit alert" 1 (List.length crits);
  Alcotest.(check bool) "the spike window, on overlap" true
    (match crits with
    | [ a ] -> a.H.al_window = 2 && a.H.al_indicator = "profile.overlap"
    | _ -> false)

let suite =
  ( "health",
    [
      Alcotest.test_case "series delta windows" `Quick test_series_windows;
      Alcotest.test_case "series ring retention" `Quick test_series_retention;
      QCheck_alcotest.to_alcotest prop_series_merge_laws;
      Alcotest.test_case "indicator scoring" `Quick test_health_scoring;
      Alcotest.test_case "plateau alerts once" `Quick
        test_health_plateau_alerts_once;
      Alcotest.test_case "alerts emit trace instants" `Quick
        test_health_alert_trace_instants;
      Alcotest.test_case "openmetrics snapshot exposition" `Quick
        test_export_snapshot;
      Alcotest.test_case "openmetrics series exposition" `Quick
        test_export_series;
      Alcotest.test_case "sim window without a registry" `Quick
        test_sim_window_without_registry;
      Alcotest.test_case "train report identical at -j 1/2/4" `Slow
        test_train_identity_across_jobs;
      Alcotest.test_case "drift spike trips a crit alert" `Slow
        test_train_drift_spike_alert;
    ] )
