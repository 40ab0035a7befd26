(* Telemetry layer: JSON round-trips, sharded-registry merge semantics,
   and the headline determinism contract — a fixed-clock trace of the same
   plan set exports byte-identical Chrome JSON at -j 1/2/4. *)
module Obs = Csspgo_obs
module J = Obs.Json
module M = Obs.Metrics
module Vm = Csspgo_vm
module Core = Csspgo_core
module O = Csspgo_orchestrator
module W = Csspgo_workloads
module D = Core.Driver

(* --- JSON ------------------------------------------------------------- *)

let test_json_roundtrip () =
  let cases =
    [
      J.Null;
      J.Bool true;
      J.Bool false;
      J.Int 0;
      J.Int (-42);
      J.Int max_int;
      J.Float 1.5;
      J.Float (-0.125);
      J.Float 1e17;
      J.String "";
      J.String "plain";
      J.String "quotes \" and \\ and \ttabs\nnewlines";
      J.String "unicode \xc3\xa9\xe2\x82\xac";
      J.List [];
      J.List [ J.Int 1; J.String "two"; J.Null ];
      J.Obj [];
      J.Obj
        [
          ("a", J.Int 1);
          ("b", J.List [ J.Bool false ]);
          ("nested", J.Obj [ ("x", J.Float 2.5) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = J.to_string v in
      let v' = J.parse_exn s in
      Alcotest.(check bool) (Printf.sprintf "round-trip %s" s) true (v = v');
      (* canonical printing: re-printing the parse gives the same bytes *)
      Alcotest.(check string) (Printf.sprintf "canonical %s" s) s (J.to_string v'))
    cases

let test_json_floats () =
  (* integer-valued floats keep a decimal point so they parse back as Float *)
  (match J.parse_exn (J.to_string (J.Float 3.0)) with
  | J.Float f -> Alcotest.(check (float 0.0)) "float stays float" 3.0 f
  | _ -> Alcotest.fail "Float 3.0 did not parse back as Float");
  (* non-finite floats degrade to null rather than emitting invalid JSON *)
  Alcotest.(check string) "nan is null" "null" (J.to_string (J.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (J.to_string (J.Float Float.infinity))

let test_json_rejects () =
  List.iter
    (fun s ->
      match J.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

let test_json_error_paths () =
  let rejects tag s =
    (match J.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%s: parse accepted %S" tag s));
    match J.parse_exn s with
    | exception J.Parse_error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "%s: parse_exn accepted %S" tag s)
  in
  (* lone \u surrogates: a high with no low, a low on its own, a high
     followed by something other than a low-surrogate escape *)
  rejects "lone high surrogate" {|"\ud800"|};
  rejects "lone low surrogate" {|"\udc00"|};
  rejects "high surrogate then text" {|"\ud800zz"|};
  rejects "high surrogate then non-surrogate escape" {|"\ud800\u0041"|};
  (* overlong numbers that overflow the double range must not become
     unprintable infinities *)
  rejects "huge exponent" "1e999";
  rejects "negative huge exponent" "-1e999";
  rejects "overlong digit run" ("1" ^ String.make 400 '0');
  (* trailing garbage after a complete document *)
  rejects "trailing word" "{} x";
  rejects "trailing number" "1 2";
  rejects "trailing bracket" "[1]]";
  (* a proper surrogate pair still decodes to 4-byte UTF-8 *)
  match J.parse_exn {|"\ud83d\ude00"|} with
  | J.String s ->
      Alcotest.(check string) "surrogate pair decodes" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair did not parse as a string"

let test_json_member () =
  let v = J.parse_exn {|{"a": 1, "b": [2, 3]}|} in
  Alcotest.(check bool) "member a" true (J.member "a" v = Some (J.Int 1));
  Alcotest.(check bool) "member missing" true (J.member "z" v = None);
  match J.member "b" v with
  | Some l ->
      Alcotest.(check bool) "b is list" true
        (J.to_list l = Some [ J.Int 2; J.Int 3 ])
  | None -> Alcotest.fail "member b missing"

(* --- clock ------------------------------------------------------------ *)

let test_fixed_clock () =
  let clk = Obs.Clock.fixed ~step:3L () in
  Alcotest.(check bool) "is_fixed" true (Obs.Clock.is_fixed clk);
  let c1 = Obs.Clock.cursor clk in
  let c2 = Obs.Clock.cursor clk in
  Alcotest.(check bool) "cursor ticks 0,3,6" true
    (Obs.Clock.now_us c1 = 0L
    && Obs.Clock.now_us c1 = 3L
    && Obs.Clock.now_us c1 = 6L);
  (* cursors are independent tick sources *)
  Alcotest.(check bool) "fresh cursor starts at 0" true (Obs.Clock.now_us c2 = 0L);
  Alcotest.(check bool) "wall clock is not fixed" false
    (Obs.Clock.is_fixed (Obs.Clock.wall ()))

(* --- metrics registry ------------------------------------------------- *)

let test_null_registry () =
  Alcotest.(check bool) "null disabled" false (M.enabled M.null);
  (* bumping inert handles is a no-op, not an error *)
  M.bump (M.counter M.null "c") 5;
  M.observe_gauge (M.gauge M.null "g") 7;
  M.observe (M.histogram M.null "h") 9;
  let s = M.snapshot M.null in
  Alcotest.(check bool) "null snapshot empty" true
    (s.M.s_counters = [] && s.M.s_gauges = [] && s.M.s_histograms = [])

let test_counter_multi_domain () =
  let m = M.create () in
  let c = M.counter m "par.count" in
  let per_domain = 10_000 in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              M.incr c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check (option int))
    "4 domains x 10k increments sum" (Some (4 * per_domain))
    (M.find_counter (M.snapshot m) "par.count")

let test_gauge_max_merge () =
  let m = M.create () in
  let g = M.gauge m "depth" in
  let ds =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            M.observe_gauge g (10 * (i + 1));
            M.observe_gauge g 1))
  in
  List.iter Domain.join ds;
  Alcotest.(check (option int))
    "gauge merges by max" (Some 40)
    (M.find_gauge (M.snapshot m) "depth")

(* The gauge contract: resting value 0, negative observations clamped to
   it (ignored), so a snapshot is the pure max over {0} and the positive
   observations — wherever in the domain schedule they landed. *)
let prop_gauge_clamp_merge =
  QCheck.Test.make ~name:"gauge max-merge ignores negatives, rests at 0"
    ~count:100
    QCheck.(pair (small_list int) (small_list int))
    (fun (xs, ys) ->
      let m = M.create () in
      let g = M.gauge m "q" in
      let d = Domain.spawn (fun () -> List.iter (M.observe_gauge g) ys) in
      List.iter (M.observe_gauge g) xs;
      Domain.join d;
      let expect =
        List.fold_left (fun acc v -> if v > acc then v else acc) 0 (xs @ ys)
      in
      M.find_gauge (M.snapshot m) "q" = Some expect)

let test_histogram_buckets () =
  Alcotest.(check int) "bucket 0 lower bound" 0 (M.bucket_lo 0);
  Alcotest.(check int) "bucket 1 lower bound" 1 (M.bucket_lo 1);
  Alcotest.(check int) "bucket 4 lower bound" 8 (M.bucket_lo 4);
  let m = M.create () in
  let h = M.histogram m "lat" in
  (* bucket 0: v <= 0; bucket k: 2^(k-1) <= v < 2^k *)
  List.iter (M.observe h) [ -1; 0; 1; 2; 3; 4; 7; 8 ];
  M.observe_n h 1024 5;
  match M.find_histogram (M.snapshot m) "lat" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some s ->
      Alcotest.(check int) "count" 13 s.M.h_count;
      Alcotest.(check int) "sum" (24 + (5 * 1024)) s.M.h_sum;
      Alcotest.(check bool) "bucket shape" true
        (s.M.h_nonzero
        = [ (0, 2); (1, 1); (2, 2); (3, 2); (4, 1); (11, 5) ])

let test_same_name_same_instrument () =
  let m = M.create () in
  M.incr (M.counter m "dup");
  M.incr (M.counter m "dup");
  Alcotest.(check (option int))
    "find-or-register aliases" (Some 2)
    (M.find_counter (M.snapshot m) "dup")

(* --- report ----------------------------------------------------------- *)

let test_report_json () =
  let m = M.create () in
  M.bump (M.counter m "vm.runs") 6;
  M.observe (M.histogram m "ctx.context-depth") 3;
  let row ov =
    {
      Obs.Report.vr_variant = "csspgo-full";
      vr_eval_cycles = 1234L;
      vr_eval_instructions = 999L;
      vr_profiling_cycles = 55L;
      vr_text_size = 10;
      vr_profile_size = 20;
      vr_overlap = ov;
      vr_stale_funcs = 0;
    }
  in
  let rp =
    {
      Obs.Report.rp_workload = "wl";
      rp_rows = [ row (Some 0.875); row None ];
      rp_metrics = M.snapshot m;
    }
  in
  let j = Obs.Report.to_json rp in
  let j' = J.parse_exn (J.to_string j) in
  Alcotest.(check bool) "report JSON round-trips" true (j = j');
  Alcotest.(check bool) "workload key" true
    (J.member "workload" j' = Some (J.String "wl"));
  (match J.member "variants" j' with
  | Some (J.List [ r1; r2 ]) ->
      Alcotest.(check bool) "overlap present" true
        (J.member "block_overlap" r1 = Some (J.Float 0.875));
      Alcotest.(check bool) "overlap null when n/a" true
        (J.member "block_overlap" r2 = Some J.Null)
  | _ -> Alcotest.fail "variants is not a 2-row list");
  (match J.member "metrics" j' with
  | Some jm ->
      Alcotest.(check bool) "metrics counters present" true
        (match J.member "counters" jm with
        | Some (J.Obj kvs) -> List.mem_assoc "vm.runs" kvs
        | _ -> false)
  | None -> Alcotest.fail "metrics key missing");
  let text = Obs.Report.to_text rp in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "text mentions the variant" true
    (contains text "csspgo-full")

(* --- fixed-clock trace determinism across jobs ------------------------ *)

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
    D.w_name = Printf.sprintf "obs-%Ld" seed;
    w_source = src;
    w_entry = "main";
    w_train = List.init 8 (fun _ -> spec);
    w_eval = [ spec ];
  }

let variants = [ D.Instr_pgo; D.Autofdo; D.Csspgo_full ]

(* Gauges (queue depth) and scheduler counters (steals) legitimately depend
   on the domain schedule; everything else must not. *)
let schedule_independent snap =
  List.filter
    (fun (name, _) -> not (String.length name >= 6 && String.sub name 0 6 = "sched."))
    snap.M.s_counters

let test_trace_identity_across_jobs () =
  let w = gen_workload 11L in
  let run_at jobs =
    let trace = Obs.Trace.create ~clock:(Obs.Clock.fixed ()) () in
    let metrics = M.create ~trace () in
    let plans = List.map (fun v -> D.Plan.make ~options ~variant:v w) variants in
    let outcomes = O.Orchestrate.run_plans ~obs:metrics ~jobs plans in
    Alcotest.(check int) "one outcome per plan" (List.length variants)
      (List.length outcomes);
    let bytes = Obs.Trace.to_chrome_json trace in
    ignore (J.parse_exn bytes);
    (bytes, schedule_independent (M.snapshot metrics), M.snapshot metrics)
  in
  let ref_bytes, ref_counters, ref_snap = run_at 1 in
  Alcotest.(check bool) "trace has events" true (String.length ref_bytes > 2);
  Alcotest.(check bool) "plan counters recorded" true
    (M.find_counter ref_snap "plan.correlate.recon-samples" <> None);
  List.iter
    (fun jobs ->
      let bytes, counters, _ = run_at jobs in
      Alcotest.(check bool)
        (Printf.sprintf "trace bytes identical at -j %d" jobs)
        true
        (String.equal bytes ref_bytes);
      Alcotest.(check bool)
        (Printf.sprintf "counters identical at -j %d" jobs)
        true (counters = ref_counters))
    [ 2; 4 ]

let test_trace_shape () =
  let trace = Obs.Trace.create ~clock:(Obs.Clock.fixed ()) () in
  let tk = Obs.Trace.track trace ~tid:0 ~name:"t0" in
  Obs.Trace.with_span tk "outer" (fun () -> Obs.Trace.instant tk "mark");
  (* metadata record + B + i + E *)
  Alcotest.(check int) "event count" 3 (Obs.Trace.n_events trace);
  let j = J.parse_exn (Obs.Trace.to_chrome_json trace) in
  match Option.bind (J.member "traceEvents" j) J.to_list with
  | Some evs ->
      let phases =
        List.filter_map (fun e -> J.member "ph" e) evs
        |> List.map (function J.String s -> s | _ -> "?")
      in
      Alcotest.(check (list string)) "phase sequence"
        [ "M"; "B"; "i"; "E" ] phases
  | None -> Alcotest.fail "traceEvents missing"

let suite =
  ( "obs",
    [
      Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
      Alcotest.test_case "json float edge cases" `Quick test_json_floats;
      Alcotest.test_case "json rejects malformed" `Quick test_json_rejects;
      Alcotest.test_case "json typed parse errors" `Quick test_json_error_paths;
      Alcotest.test_case "json member access" `Quick test_json_member;
      Alcotest.test_case "fixed clock ticks" `Quick test_fixed_clock;
      Alcotest.test_case "null registry is inert" `Quick test_null_registry;
      Alcotest.test_case "counter sums across domains" `Quick
        test_counter_multi_domain;
      Alcotest.test_case "gauge merges by max" `Quick test_gauge_max_merge;
      QCheck_alcotest.to_alcotest prop_gauge_clamp_merge;
      Alcotest.test_case "histogram log2 buckets" `Quick test_histogram_buckets;
      Alcotest.test_case "instrument find-or-register" `Quick
        test_same_name_same_instrument;
      Alcotest.test_case "report JSON and text" `Quick test_report_json;
      Alcotest.test_case "fixed-clock trace identical at -j 1/2/4" `Slow
        test_trace_identity_across_jobs;
      Alcotest.test_case "trace event shape" `Quick test_trace_shape;
    ] )
