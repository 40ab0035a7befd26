(* The benchmark behind BENCHMARK.json.

     perf.exe --workload W --seed N --seconds S --trace 0|1
     perf.exe --check        (validate a result line read from stdin)

   --trace 0 sets up, then times whole units through the black-box entry
   points until S seconds are spent, checks every optimized binary's
   output against the -O0 build, and reports the end-to-end metrics.
   --trace 1 alternates a black-box unit with the same unit recomposed
   layer by layer under the ledger, requires the two to agree
   byte-for-byte, and reports the per-layer metrics; the spans go to
   .perf/trace-W-seedN.json as a Chrome trace. The last line of stdout is
   always the JSON result. See README.md. *)

module Json = Csspgo_obs.Json

let process_start = Unix.gettimeofday ()
let now = Unix.gettimeofday

(* --- statistics ------------------------------------------------------------ *)

(* Quantile by linear interpolation between closest ranks. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let geomean xs = exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* All words allocated so far, by every domain. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* --- metrics ---------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; samples : float list }

let metric ?(stat = median) name unit_ samples = { name; unit_; value = stat samples; samples }

let end_to_end =
  [
    ("setup_s", "s");
    ("unit_s", "s");
    ("alloc_mw", "Mw");
    ("heap_mb", "MB");
    ("speedup", "x");
    ("overlap", "ratio");
    ("text_bytes", "B");
    ("profile_bytes", "B");
    ("probe_cycles_ratio", "ratio");
  ]

(* Per-layer metrics of a traced unit: (name, unit, value from the unit's
   ledger view and the numbers measured after it). *)
let per_layer =
  let self name v _ = Ledger.self_s v name in
  let mw name v _ = Ledger.self_mw v name in
  let counted name v _ = Ledger.counted v name in
  let rate ~scale count span v _ =
    let s = Ledger.self_s v span in
    if s > 0. then Ledger.counted v count /. s /. scale else 0.
  in
  let extra name _ extras = Option.value (List.assoc_opt name extras) ~default:0. in
  [
    ("frontend.lower_s", "s", self "frontend.lower");
    ("core.probe_insert_s", "s", self "core.probe_insert");
    ("core.instrument_s", "s", self "core.instrument");
    ("opt.optimize_s", "s", self "opt.optimize");
    ("opt.optimize_mw", "Mw", mw "opt.optimize");
    ("codegen.emit_s", "s", self "codegen.emit");
    ("codegen.text_bytes", "B", counted "codegen.text_bytes");
    ("vm.profile_s", "s", self "vm.profile");
    ("vm.profile_mw", "Mw", mw "vm.profile");
    ("vm.samples", "count", counted "vm.samples");
    ( "vm.profile_mcycles_per_s",
      "Mcycles/s",
      rate ~scale:1e6 "vm.profile_cycles" "vm.profile" );
    ("vm.eval_s", "s", self "vm.eval");
    ( "vm.eval_minstr_per_s",
      "Minstr/s",
      rate ~scale:1e6 "vm.eval_instructions" "vm.eval" );
    ("profgen.bindex_s", "s", self "profgen.bindex");
    ("profgen.ranges_s", "s", self "profgen.ranges");
    ("profgen.dwarf_corr_s", "s", self "profgen.dwarf_corr");
    ("core.missing_frame_s", "s", self "core.missing_frame");
    ("core.probe_corr_s", "s", self "core.probe_corr");
    ("core.ctx_reconstruct_s", "s", self "core.ctx_reconstruct");
    ("core.ctx_reconstruct_mw", "Mw", mw "core.ctx_reconstruct");
    ( "core.ctx_samples_per_s",
      "1/s",
      rate ~scale:1. "core.ctx_samples" "core.ctx_reconstruct" );
    ("core.ctx_samples", "count", counted "core.ctx_samples");
    ("core.ctx_dropped", "count", counted "core.ctx_dropped");
    ("core.gaps_resolved", "count", counted "core.gaps_resolved");
    ("core.gaps_failed", "count", counted "core.gaps_failed");
    ("profile.trim_s", "s", self "profile.trim");
    ("profile.ctx_nodes_untrimmed", "count", counted "profile.ctx_nodes_untrimmed");
    ("profile.ctx_nodes", "count", counted "profile.ctx_nodes");
    ("profile.text_render_s", "s", self "profile.text_render");
    ("profile.text_render_mw", "Mw", mw "profile.text_render");
    ("profile.text_bytes", "B", counted "profile.text_bytes");
    ("profile.text_parse_s", "s", self "profile.text_parse");
    ("profile.fingerprint_s", "s", self "profile.fingerprint");
    ("profile.merge_s", "s", self "profile.merge");
    ("core.size_extract_s", "s", self "core.size_extract");
    ("core.preinline_s", "s", self "core.preinline");
    ("core.preinline_decisions", "count", counted "core.preinline_decisions");
    ("core.annotate_s", "s", self "core.annotate");
    ("core.stale_match_s", "s", self "core.stale_match");
    ("core.stale_recovery", "ratio", counted "core.stale_recovery");
    ("fleet.build_s", "s", self "fleet.build");
    ("fleet.serve_s", "s", self "fleet.serve");
    ("fleet.batches", "count", counted "fleet.batches");
    ("fleet.bytes", "B", counted "fleet.bytes");
    ("collector.drain_s", "s", self "collector.drain");
    ("collector.dropped_blobs", "count", counted "collector.dropped_blobs");
    ("fleet.correlate_s", "s", self "fleet.correlate");
    ("fleet.correlate_labeled_s", "s", self "fleet.correlate_labeled");
    ("par_corr.speedup", "x", extra "par_corr.speedup");
    ("ledger.unit_s", "s", fun v _ -> v.Ledger.wall);
    ("ledger.coverage", "ratio", fun v _ -> Ledger.coverage v);
  ]

let ledger_overhead = ("ledger.trace_overhead", "ratio")

(* --- reporting -------------------------------------------------------------- *)

let report ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "%-28s %14.6g %-9s q1 %.6g  median %.6g  q3 %.6g  n %d\n" m.name m.value
        m.unit_ (quantile 0.25 m.samples) (median m.samples) (quantile 0.75 m.samples)
        (List.length m.samples))
    metrics;
  Printf.printf "error_rate %g (%d of %d)\n"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     ( m.name,
                       Json.Obj
                         [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
                     ))
                   metrics) );
          ]));
  exit (if failed = 0 then 0 else 1)

let fail_unit what e =
  Printf.printf "FAIL %s: %s\n%!" what (Printexc.to_string e)

(* Run [step] at least once, then again while the next run is expected to
   end within [seconds] of [start]; returns the per-run wall times. *)
let measure ~seconds step =
  let start = now () in
  let rec go times =
    let t0 = now () in
    step ();
    let times = (now () -. t0) :: times in
    if now () -. start +. median times <= seconds then go times else List.rev times
  in
  go []

(* --- --trace 0 ------------------------------------------------------------- *)

(* Set-up runs this many times; [setup_s] is the median, and every repeat
   must reach the same state. *)
let setups = 3

let run_plain (wl : Workload.t) params ~seconds =
  let prepared =
    List.init setups (fun i ->
        let t0 = if i = 0 then process_start else now () in
        let p = wl.Workload.prepare params in
        (now () -. t0, p))
  in
  let prep = snd (List.hd (List.rev prepared)) in
  print_endline ("inputs: " ^ prep.Workload.inputs);
  let failed = ref 0 and attempted = ref 0 in
  if List.exists (fun (_, p) -> p.Workload.setup_digest <> prep.Workload.setup_digest) prepared
  then begin
    print_endline "FAIL set-up is not deterministic across repeats";
    incr failed
  end;
  let checked = Hashtbl.create 64 in
  (* Outside the timed region: every binary not seen before runs its eval
     inputs, and each return value must equal the -O0 build's. *)
  let check (o : Workload.outcome) =
    List.iter
      (fun (b : Workload.binary) ->
        let key = (Workload.binary_digest b.Workload.bn_bin, Workload.reference_key b.Workload.bn_workload) in
        if not (Hashtbl.mem checked key) then begin
          Hashtbl.replace checked key ();
          let expected = Hashtbl.find prep.Workload.references (snd key) in
          let got = Workload.results b.Workload.bn_bin b.Workload.bn_workload in
          List.iter2
            (fun e g ->
              incr attempted;
              if e <> g then begin
                incr failed;
                Printf.printf "FAIL %s: eval returned %Ld, -O0 returned %Ld\n"
                  b.Workload.bn_workload.Csspgo_core.Driver.w_name g e
              end)
            expected got
        end)
      o.Workload.binaries
  in
  let pgo = ref None in
  (* One unit: only the black-box call is timed; its summary and output
     check run after the clock stops. *)
  let run_unit () =
    incr attempted;
    let w0 = alloc_words () and t0 = now () in
    match prep.Workload.black_box ~capture:false () with
    | exception e ->
        incr failed;
        fail_unit "unit" e;
        None
    | summarize -> (
        let sample =
          (now () -. t0, alloc_words () -. w0, float_of_int (Gc.quick_stat ()).Gc.heap_words)
        in
        match summarize () with
        | exception e ->
            incr failed;
            fail_unit "unit summary" e;
            None
        | o ->
            check o;
            (match !pgo with
            | None -> pgo := Some o.Workload.pgo
            | Some first when first <> o.Workload.pgo ->
                print_endline "FAIL units of one run disagree";
                incr failed
            | Some _ -> ());
            Some sample)
  in
  (* The first unit grows the heap from its set-up size and is checked
     against every -O0 reference; it is a warm-up, kept out of the
     statistics. *)
  ignore (run_unit ());
  let samples = ref [] in
  ignore
    (measure ~seconds (fun () -> Option.iter (fun x -> samples := x :: !samples) (run_unit ())));
  let times = List.rev_map (fun (t, _, _) -> t) !samples in
  print_endline ("unit times: " ^ String.concat " " (List.map (Printf.sprintf "%.3f") times));
  let words = List.map (fun (_, w, _) -> w /. 1e6) !samples in
  (* Major-heap size as each unit ends. The high-water mark [top_heap_words]
     is no steadier than the GC's timing: on fleet-skew's two domains it
     ranged from 112 to 185 MB over ten runs. The largest heap a unit left
     behind stayed within 7%. *)
  let heap_mb =
    List.map (fun (_, _, h) -> h *. float_of_int (Sys.word_size / 8) /. 1e6) !samples
  in
  let pgo = Option.value !pgo ~default:[] in
  if pgo = [] then begin
    incr failed;
    print_endline "FAIL no unit completed"
  end;
  let exact name unit_ f =
    metric name unit_ (if pgo = [] then [ nan ] else [ f pgo ])
  in
  let f = Int64.to_float in
  report ~attempted:!attempted ~failed:!failed
    [
      metric "setup_s" "s" (List.map fst prepared);
      (* A shared host only ever adds time, in episodes that cover several
         units; the fastest unit steps around them where the median does
         not, and spreads less from run to run. *)
      metric ~stat:(List.fold_left min infinity) "unit_s" "s" times;
      metric "alloc_mw" "Mw" words;
      metric ~stat:(List.fold_left max neg_infinity) "heap_mb" "MB" heap_mb;
      exact "speedup" "x" (fun l ->
          geomean (List.map (fun g -> f g.Workload.baseline /. f g.Workload.cycles) l));
      exact "overlap" "ratio" (fun l -> mean (List.map (fun g -> g.Workload.overlap) l));
      exact "text_bytes" "B" (fun l ->
          float_of_int (List.fold_left (fun a g -> a + g.Workload.text) 0 l));
      exact "profile_bytes" "B" (fun l ->
          float_of_int (List.fold_left (fun a g -> a + g.Workload.profile) 0 l));
      metric "probe_cycles_ratio" "ratio" [ prep.Workload.probe_ratio ];
    ]

(* --- --trace 1 ------------------------------------------------------------- *)

(* The ROADMAP rule: stage costs must account for 95% of the wall time. *)
let min_coverage = 0.95

let run_traced (wl : Workload.t) params ~seconds ~trace_file =
  let prep = wl.Workload.prepare params in
  print_endline ("inputs: " ^ prep.Workload.inputs);
  let failed = ref 0 and attempted = ref 0 in
  let black = ref [] and traced = ref [] and next_id = ref 0 in
  (* Warm-up, as in --trace 0: the first unit of a process grows the heap. *)
  (match prep.Workload.black_box ~capture:false () () with
  | _ -> ()
  | exception e ->
      incr failed;
      fail_unit "warm-up unit" e);
  (* A black-box unit, timed for the overhead ratio, then the composed
     unit under the ledger; the summaries run after both clocks stop. *)
  let pair () =
    let t0 = now () in
    let bb = prep.Workload.black_box ~capture:true () in
    black := (now () -. t0) :: !black;
    let bb = bb () in
    incr next_id;
    (!next_id, bb, Ledger.traced_unit !next_id prep.Workload.composed ())
  in
  ignore
    (measure ~seconds (fun () ->
         incr attempted;
         match pair () with
         | exception e ->
             incr failed;
             fail_unit "traced unit" e
         | id, bb, tr -> (
             let a = Lazy.force bb.Workload.fingerprint
             and b = Lazy.force tr.Workload.fingerprint in
             let differs ((k, x), (k', y)) = k <> k' || not (String.equal x y) in
             match
               if List.length a <> List.length b then Some "the result set"
               else Option.map (fun ((k, _), _) -> k) (List.find_opt differs (List.combine a b))
             with
             | Some k ->
                 incr failed;
                 Printf.printf "FAIL composed pipeline differs from the black box at %s\n" k
             | None -> traced := (Ledger.view id, tr.Workload.extra) :: !traced)));
  let traced = List.rev !traced in
  let layer_metric (name, unit_, f) =
    metric name unit_ (List.map (fun (v, extra) -> f v extra) traced)
  in
  let coverage = List.map (fun (v, _) -> Ledger.coverage v) traced in
  if traced = [] || median coverage < min_coverage then begin
    incr failed;
    Printf.printf "FAIL ledger covers %.3f of the traced unit, below %.2f\n"
      (median coverage) min_coverage
  end;
  let overhead =
    let name, unit_ = ledger_overhead in
    metric name unit_
      [ (median (List.map (fun (v, _) -> v.Ledger.wall) traced) /. median !black) -. 1. ]
  in
  (try Sys.mkdir (Filename.dirname trace_file) 0o755 with Sys_error _ -> ());
  Out_channel.with_open_bin trace_file (fun oc ->
      Out_channel.output_string oc (Ledger.chrome_trace ()));
  Printf.printf "trace written to %s\n" trace_file;
  report ~attempted:!attempted ~failed:!failed (List.map layer_metric per_layer @ [ overhead ])

(* --- --check ---------------------------------------------------------------- *)

(* Parse-check a result line: the last non-empty line of stdin must be the
   result object with exactly the expected keys and metric names. *)
let check_result () =
  let lines = String.split_on_char '\n' (In_channel.input_all stdin) in
  let last = List.fold_left (fun acc l -> if String.trim l = "" then acc else l) "" lines in
  let names l = List.sort compare l in
  let fail msg =
    prerr_endline ("perf --check: " ^ msg);
    exit 1
  in
  match Json.parse last with
  | Error e -> fail ("result line does not parse: " ^ e)
  | Ok (Json.Obj fields as j) -> (
      if names (List.map fst fields) <> names [ "correct"; "attempted"; "failed"; "metrics" ]
      then fail "result keys differ from correct/attempted/failed/metrics";
      (match (Json.member "correct" j, Json.member "attempted" j, Json.member "failed" j) with
      | Some (Json.Bool true), Some (Json.Int a), Some (Json.Int 0) when a >= 1 -> ()
      | _ -> fail "result is not correct, or attempted/failed are off");
      match Json.member "metrics" j with
      | Some (Json.Obj ms) ->
          let got = names (List.map fst ms) in
          let expect =
            if List.mem_assoc "unit_s" ms then names (List.map fst end_to_end)
            else names (List.map (fun (n, _, _) -> n) per_layer @ [ fst ledger_overhead ])
          in
          if got <> expect then fail "metric names differ from the benchmark's lists";
          List.iter
            (fun (n, m) ->
              match m with
              | Json.Obj [ ("value", (Json.Float _ | Json.Int _)); ("unit", Json.String _) ] -> ()
              | _ -> fail ("metric " ^ n ^ " is not {value, unit}"))
            ms;
          Printf.printf "ok: %d metrics\n" (List.length ms)
      | _ -> fail "metrics is not an object")
  | Ok _ -> fail "result line is not an object"

(* --- command line ------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perf.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perf.exe --check\n\
     workloads: ctx-recursive server-matrix fleet-skew tenant-mix";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--check" ] then check_result ()
  else begin
    let rec opts acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
          opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let o = opts [] args in
    let get k conv ~default =
      match List.assoc_opt k o with
      | None -> default
      | Some v -> ( match conv v with Some x -> x | None -> usage ())
    in
    let name = get "workload" Option.some ~default:"" in
    let seed = get "seed" int_of_string_opt ~default:1 in
    let seconds = get "seconds" float_of_string_opt ~default:30. in
    let trace = get "trace" int_of_string_opt ~default:0 in
    if List.exists (fun (k, _) -> not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ])) o
       || not (List.mem trace [ 0; 1 ])
    then usage ();
    let wl =
      match List.find_opt (fun w -> String.equal w.Workload.name name) Workload.all with
      | Some w -> w
      | None -> usage ()
    in
    let cores = Domain.recommended_domain_count () in
    Printf.printf "workload %s seed %d seconds %g trace %d cores %d\n%!" name seed seconds trace
      cores;
    (* Time-slicing more domains than cores would measure the scheduler,
       not the workload. *)
    if wl.Workload.domains > cores then begin
      Printf.eprintf "perf: %s runs on %d domains but this host recommends %d; refusing\n"
        name wl.Workload.domains cores;
      exit 2
    end;
    let params = Workload.params ~fleet:(wl.Workload.name = "fleet-skew") ~seed in
    Printf.printf "seeds: period %d pmu-seed %Ld drift-seed %Ld mix-seed %Ld duty-seed %Ld\n%!"
      params.Workload.period params.Workload.pmu_seed params.Workload.drift_seed
      params.Workload.mix_seed params.Workload.duty_seed;
    if trace = 0 then run_plain wl params ~seconds
    else
      run_traced wl params ~seconds
        ~trace_file:(Printf.sprintf ".perf/trace-%s-seed%d.json" name seed)
  end
