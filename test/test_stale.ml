(* Stale-profile matching: the staleness test battery.

   Three property families plus targeted edge cases:
   - drift identity: edits=0 is byte-identity with an empty log, and equal
     (seed, edits) yield byte-identical revisions;
   - self-match: matching any profile against the very IR it was collected
     on is 100% exact and returns the same canonical bytes;
   - conservation: for arbitrary edit scripts, every verdict satisfies
     total_in = recovered + dropped, as do the report totals;
   - Quality.block_overlap on mismatched function/block sets stays finite
     (no NaN / division by zero), and Quality.recovery guards a zero fresh
     overlap;
   - orchestrated stale plans are deterministic across -j 1/2/4. *)
module F = Csspgo_frontend
module Ir = Csspgo_ir
module P = Csspgo_profile
module Core = Csspgo_core
module SM = Core.Stale_match
module Q = Core.Quality
module D = Core.Driver
module O = Csspgo_orchestrator
module W = Csspgo_workloads
module Fl = Csspgo_fleet

(* Dense sampling for rich profiles (same knob the bench and fuzz
   harnesses use). The matcher properties run on suite workloads: tiny
   generated programs optimize to straight-line code with no taken
   branches, so the LBR-driven pipeline legitimately yields empty
   profiles — [Workloads.Gen] sources still drive the pure drift
   properties, which never profile. *)
let options =
  {
    D.default_options with
    D.pmu = { Csspgo_vm.Machine.default_pmu with Csspgo_vm.Machine.sample_period = 101 };
  }

let gen_src seed = W.Gen.random_source ~n_funcs:4 ~size:2 ~seed ()

let suite_workloads = [ W.Suite.adretriever; W.Suite.haas ]

(* Pre-optimization IR of [src], probed when asked — the [target] shape
   every matcher expects. *)
let target_ir ?(probes = true) src =
  let p = F.Lower.compile src in
  if probes then Core.Pseudo_probe.insert p;
  p

(* All sampled profiles a workload produces, as parsed profile values:
   the line profile, the context trie and its flat probe profile. *)
let profiles_of (w : D.workload) =
  List.concat_map
    (fun shape ->
      let b = Fl.Build.profiling_build ~options ~shape ~source:w.D.w_source in
      let p, flat = Fl.Build.correlate ~options ~shape b (Fl.Build.record ~options b w) in
      List.filter_map
        (fun p ->
          (* A kind can legitimately come out empty (fully trimmed context
             trie, branchless hot path) — nothing to stale-match then. *)
          let text = P.Text_io.to_string p in
          match P.Text_io.detect_kind text with
          | None -> None
          | Some kind -> Some (P.Text_io.of_string ~kind text))
        (p :: Option.to_list (Option.map (fun f -> P.Text_io.Probe_prof f) flat)))
    [ Fl.Build.Lines; Fl.Build.Ctx ]

(* Profiling a suite workload costs a full build+train pipeline; do it
   once per workload for the whole battery. *)
let workload_profiles =
  let tbl = Hashtbl.create 4 in
  fun (w : D.workload) ->
    match Hashtbl.find_opt tbl w.D.w_name with
    | Some ps -> ps
    | None ->
        let ps = profiles_of w in
        Hashtbl.replace tbl w.D.w_name ps;
        ps

let match_any ~target = function
  | P.Text_io.Probe_prof p ->
      let m, r = SM.match_probe ~target p in
      (P.Text_io.Probe_prof m, r)
  | P.Text_io.Line_prof p ->
      let m, r = SM.match_line ~target p in
      (P.Text_io.Line_prof m, r)
  | P.Text_io.Ctx_prof p ->
      let m, r = SM.match_ctx ~target p in
      (P.Text_io.Ctx_prof m, r)

(* --- drift identity -------------------------------------------------- *)

let prop_drift_identity =
  QCheck.Test.make ~name:"drift: edits=0 is byte-identity" ~count:30
    QCheck.(int_range 1 500)
    (fun seed ->
      let src = gen_src (Int64.of_int seed) in
      let d = W.Drift.apply ~seed:(Int64.of_int (seed * 31)) ~edits:0 src in
      String.equal d.W.Drift.dr_source src && d.W.Drift.dr_edits = [])

let prop_drift_deterministic =
  QCheck.Test.make ~name:"drift: equal seeds drift identically" ~count:20
    QCheck.(pair (int_range 1 500) (int_range 1 8))
    (fun (seed, edits) ->
      let src = gen_src (Int64.of_int seed) in
      let d1 = W.Drift.apply ~seed:(Int64.of_int (seed * 7)) ~edits src in
      let d2 = W.Drift.apply ~seed:(Int64.of_int (seed * 7)) ~edits src in
      String.equal d1.W.Drift.dr_source d2.W.Drift.dr_source
      && List.length d1.W.Drift.dr_edits = edits
      && List.for_all2
           (fun a b -> String.equal (W.Drift.edit_to_string a) (W.Drift.edit_to_string b))
           d1.W.Drift.dr_edits d2.W.Drift.dr_edits)

(* --- self-match: zero drift must be a no-op -------------------------- *)

let test_self_match_exact () =
  List.iter
    (fun (w : D.workload) ->
      List.iter
        (fun prof ->
          let label tag =
            Printf.sprintf "%s %s %s" w.D.w_name
              (P.Text_io.kind_name (P.Text_io.kind_of prof))
              tag
          in
          let probes = P.Text_io.kind_of prof <> P.Text_io.Line in
          let target = target_ir ~probes w.D.w_source in
          let matched, report = match_any ~target prof in
          List.iter
            (fun v ->
              Alcotest.(check string) (label (v.SM.v_name ^ " status")) "exact"
                (SM.status_name v.SM.v_status))
            report.SM.r_verdicts;
          Alcotest.(check int) (label "fuzzy") 0 report.SM.r_fuzzy;
          Alcotest.(check int) (label "dropped") 0 report.SM.r_dropped;
          Alcotest.(check (float 0.0)) (label "recovery") 1.0 (SM.recovery_rate report);
          Alcotest.(check string) (label "bytes")
            (P.Text_io.to_string prof) (P.Text_io.to_string matched))
        (workload_profiles w))
    suite_workloads

(* The matcher checks above are vacuous on unsampled profiles; require
   that every suite workload demonstrably produces all three kinds so the
   battery cannot silently degrade into a no-op. *)
let test_profiles_nonempty () =
  List.iter
    (fun (w : D.workload) ->
      let kinds =
        List.sort_uniq compare (List.map P.Text_io.kind_of (workload_profiles w))
      in
      Alcotest.(check int)
        (w.D.w_name ^ " samples all three profile kinds")
        3 (List.length kinds))
    suite_workloads

(* --- conservation under arbitrary edit scripts ----------------------- *)

let verdict_conserves (v : SM.verdict) =
  Int64.equal v.SM.v_total_in (Int64.add v.SM.v_recovered v.SM.v_dropped)

let report_conserves (r : SM.report) =
  Int64.equal r.SM.r_total_in (Int64.add r.SM.r_recovered r.SM.r_dropped_counts)
  && List.for_all verdict_conserves r.SM.r_verdicts
  && r.SM.r_exact + r.SM.r_fuzzy + r.SM.r_dropped = List.length r.SM.r_verdicts
  && Int64.equal r.SM.r_total_in
       (List.fold_left
          (fun acc v -> Int64.add acc v.SM.v_total_in)
          0L r.SM.r_verdicts)
  &&
  let rate = SM.recovery_rate r in
  rate >= 0.0 && rate <= 1.0 +. 1e-9

let prop_match_conserves =
  QCheck.Test.make ~name:"stale: counts conserved for arbitrary edit scripts"
    ~count:16
    QCheck.(pair (int_range 1 10_000) (int_range 1 8))
    (fun (seed, edits) ->
      let w =
        List.nth suite_workloads (seed mod List.length suite_workloads)
      in
      let drift =
        W.Drift.apply ~seed:(Int64.of_int ((seed * 13) + edits)) ~edits w.D.w_source
      in
      List.for_all
        (fun prof ->
          let probes = P.Text_io.kind_of prof <> P.Text_io.Line in
          let target = target_ir ~probes drift.W.Drift.dr_source in
          let _, report = match_any ~target prof in
          report_conserves report)
        (workload_profiles w))

(* --- Quality on mismatched block sets -------------------------------- *)

let annotate_uniform ?(count = 10L) p =
  Ir.Program.iter_funcs
    (fun f ->
      f.Ir.Func.annotated <- true;
      Ir.Func.iter_blocks (fun b -> b.Ir.Block.count <- count) f)
    p

let quality_src_branchy =
  "fn f(a) {\n  let x = 0;\n  if (a > 1) { x = a * 2; } else { x = a + 7; }\n  return x;\n}\nfn main(a) { return f(a); }"

let quality_src_straight = "fn f(a) {\n  return a * 2;\n}\nfn main(a) { return f(a); }"

let quality_src_other = "fn g(a) {\n  return a - 1;\n}\nfn main(a) { return g(a); }"

let finite x = Float.is_finite x && not (Float.is_nan x)

let test_quality_mismatched_blocks () =
  (* Same function name, different CFGs: blocks present on only one side
     contribute nothing, the result stays finite and in [0, 1]. *)
  let truth = F.Lower.compile quality_src_branchy in
  let cand = F.Lower.compile quality_src_straight in
  annotate_uniform truth;
  annotate_uniform cand;
  let d = Q.block_overlap ~truth cand in
  Alcotest.(check bool) "finite" true (finite d);
  Alcotest.(check bool) "in [0,1]" true (d >= 0.0 && d <= 1.0);
  Alcotest.(check bool) "shared blocks overlap" true (d > 0.0);
  (* Asymmetric direction too: extra truth blocks, missing cand blocks. *)
  let d' = Q.block_overlap ~truth:cand truth in
  Alcotest.(check bool) "reverse finite" true (finite d' && d' >= 0.0 && d' <= 1.0)

let test_quality_disjoint_functions () =
  (* Candidate's counted functions are absent from truth entirely
     (renamed/removed drift): no pair carries counts on both sides. *)
  let truth = F.Lower.compile quality_src_other in
  let cand = F.Lower.compile quality_src_straight in
  annotate_uniform truth;
  (* Count only [f], which truth lacks; shared [main] stays at zero. *)
  Ir.Program.iter_funcs
    (fun f ->
      f.Ir.Func.annotated <- true;
      if String.equal f.Ir.Func.name "f" then
        Ir.Func.iter_blocks (fun b -> b.Ir.Block.count <- 10L) f)
    cand;
  let d = Q.block_overlap ~truth cand in
  Alcotest.(check (float 0.0)) "no common counted function -> 0.0" 0.0 d

let test_quality_zero_counts () =
  (* Both sides annotated but all-zero: func_overlap is None everywhere,
     block_overlap reports 0.0 ("no data"), never NaN. *)
  let truth = F.Lower.compile quality_src_branchy in
  let cand = F.Lower.compile quality_src_branchy in
  annotate_uniform ~count:0L truth;
  annotate_uniform ~count:0L cand;
  let d = Q.block_overlap ~truth cand in
  Alcotest.(check (float 0.0)) "all-zero -> 0.0" 0.0 d;
  (* One-sided zero as well. *)
  annotate_uniform ~count:5L cand;
  let d' = Q.block_overlap ~truth cand in
  Alcotest.(check (float 0.0)) "zero truth -> 0.0" 0.0 d'

let test_quality_recovery_guard () =
  let truth = F.Lower.compile quality_src_branchy in
  let fresh = F.Lower.compile quality_src_branchy in
  let stale = F.Lower.compile quality_src_branchy in
  annotate_uniform truth;
  annotate_uniform ~count:0L fresh;
  annotate_uniform stale;
  let r = Q.recovery ~truth ~fresh stale in
  Alcotest.(check bool) "ratio finite" true (finite r.Q.rec_ratio);
  Alcotest.(check (float 0.0)) "zero fresh overlap -> ratio 1.0" 1.0 r.Q.rec_ratio;
  (* Healthy case: identical profiles recover everything. *)
  annotate_uniform fresh;
  let r' = Q.recovery ~truth ~fresh stale in
  Alcotest.(check (float 1e-9)) "identical -> ratio 1.0" 1.0 r'.Q.rec_ratio;
  Alcotest.(check (float 1e-9)) "identical -> overlap 1.0" 1.0 r'.Q.rec_stale

(* --- verdict order ----------------------------------------------------- *)

(* Verdicts sort by name; two functions sharing a name (distinct guids)
   order by descending guid, for both flat shapes. *)
let test_verdict_order_ties () =
  let target = target_ir "fn main(a) { return a; }" in
  let funcs = [ (1L, "f"); (3L, "a"); (2L, "f") ] in
  let order (r : SM.report) = List.map (fun v -> v.SM.v_guid) r.SM.r_verdicts in
  let pp = P.Probe_profile.create () in
  let lp = P.Line_profile.create () in
  List.iter
    (fun (g, name) ->
      P.Probe_profile.add_probe (P.Probe_profile.get_or_add pp g ~name) 1 5L;
      P.Line_profile.add_line (P.Line_profile.get_or_add lp g ~name) (1, 0) 5L)
    funcs;
  Alcotest.(check (list int64)) "probe" [ 3L; 2L; 1L ] (order (snd (SM.match_probe ~target pp)));
  Alcotest.(check (list int64)) "line" [ 3L; 2L; 1L ] (order (snd (SM.match_line ~target lp)))

(* --- determinism across -j ------------------------------------------- *)

let test_stale_parallel_deterministic () =
  let w = W.Suite.adretriever in
  let drift = W.Drift.apply ~seed:99L ~edits:4 w.D.w_source in
  let stale_source = drift.W.Drift.dr_source in
  let plans () =
    List.map
      (fun v -> D.Plan.make_stale ~options ~variant:v ~stale_source w)
      [ D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full ]
  in
  let render outs =
    String.concat "\n---\n"
      (List.map
         (fun (o : D.outcome) ->
           match o.D.o_stale_report with
           | None -> Alcotest.fail "stale plan without stale report"
           | Some r ->
               Printf.sprintf "%s\n%s\neval=%Ld" (D.variant_name o.D.o_variant)
                 (SM.report_to_string r) o.D.o_eval.D.ev_cycles)
         outs)
  in
  let base = render (O.Orchestrate.run_plans ~jobs:1 (plans ())) in
  List.iter
    (fun jobs ->
      let got = render (O.Orchestrate.run_plans ~jobs (plans ())) in
      Alcotest.(check string) (Printf.sprintf "-j %d matches -j 1" jobs) base got)
    [ 2; 4 ];
  (* The matcher itself is a pure function of its inputs: re-matching
     yields byte-identical profiles and reports. *)
  let prof =
    match workload_profiles w with p :: _ -> p | [] -> Alcotest.fail "no profiles"
  in
  let probes = P.Text_io.kind_of prof <> P.Text_io.Line in
  let m1, r1 = match_any ~target:(target_ir ~probes stale_source) prof in
  let m2, r2 = match_any ~target:(target_ir ~probes stale_source) prof in
  Alcotest.(check string) "matched bytes stable" (P.Text_io.to_string m1)
    (P.Text_io.to_string m2);
  Alcotest.(check string) "report stable" (SM.report_to_string r1)
    (SM.report_to_string r2)

let suite =
  ( "stale",
    [
      QCheck_alcotest.to_alcotest prop_drift_identity;
      QCheck_alcotest.to_alcotest prop_drift_deterministic;
      Alcotest.test_case "suite workloads sample all kinds" `Quick
        test_profiles_nonempty;
      Alcotest.test_case "self-match is 100% exact and byte-equal" `Quick
        test_self_match_exact;
      QCheck_alcotest.to_alcotest prop_match_conserves;
      Alcotest.test_case "quality: mismatched block sets" `Quick
        test_quality_mismatched_blocks;
      Alcotest.test_case "quality: disjoint counted functions" `Quick
        test_quality_disjoint_functions;
      Alcotest.test_case "quality: zero counts never NaN" `Quick
        test_quality_zero_counts;
      Alcotest.test_case "quality: recovery ratio guard" `Quick
        test_quality_recovery_guard;
      Alcotest.test_case "equal names order by descending guid" `Quick
        test_verdict_order_ties;
      Alcotest.test_case "stale plans deterministic across -j" `Quick
        test_stale_parallel_deterministic;
    ] )
