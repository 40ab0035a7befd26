(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§IV) on the simulated substrate, printing measured numbers
   next to the paper's reference values.

   Usage: main.exe
     [fig6|fig7|fig8|fig9|table1|client|drift|stale|ablation|orch|micro|format|fleet|corr|health|labels|all]
   Default: all. *)

module F = Csspgo_frontend
module Ir = Csspgo_ir
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module P = Csspgo_profile
module Core = Csspgo_core
module D = Core.Driver
module W = Csspgo_workloads

let pf = Printf.printf

(* Wall time of one call, with its result. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Best wall time of three calls. *)
let time_best f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Shared measurement cache: one driver run per (workload, variant).    *)

let cache : (string * D.variant, D.outcome) Hashtbl.t = Hashtbl.create 64

let outcome (w : D.workload) v =
  match Hashtbl.find_opt cache (w.D.w_name, v) with
  | Some o -> o
  | None ->
      let o = D.run_variant v w in
      Hashtbl.replace cache (w.D.w_name, v) o;
      o

let cycles w v = Int64.to_float (outcome w v).D.o_eval.D.ev_cycles

(* Profiling run measurement shared by fig8 / table1 / micro: the -O2
   profiling build (probed or plain) run over the training inputs under
   the sampling PMU. Returns the binary, the recorded sample log and the
   total training cycles. *)
let profiling_run ~probes (w : D.workload) =
  let options = D.default_options in
  let prog = F.Lower.compile w.D.w_source in
  if probes then Core.Pseudo_probe.insert prog;
  Opt.Pass.optimize ~config:options.D.opt_profiling prog;
  let bin = Cg.Emit.emit ~options:options.D.emit_opts prog in
  let log = Vm.Sample_log.create () in
  let cycles = ref 0L in
  List.iter
    (fun (spec : D.run_spec) ->
      let r =
        Vm.Machine.run ~pmu:(Some options.D.pmu) ~sink:(Vm.Sample_log.sink log)
          ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args bin
          ~entry:w.D.w_entry
      in
      cycles := Int64.add !cycles r.Vm.Machine.cycles)
    w.D.w_train;
  (bin, log, !cycles)

let gain_vs_autofdo w v =
  let base = cycles w D.Autofdo in
  (base -. cycles w v) /. base *. 100.0

let size_vs_autofdo w v =
  let base = float_of_int (outcome w D.Autofdo).D.o_text_size in
  (float_of_int (outcome w v).D.o_text_size -. base) /. base *. 100.0

let sep title =
  pf "\n==================================================================\n";
  pf "%s\n" title;
  pf "==================================================================\n"

(* ------------------------------------------------------------------ *)

let fig6 () =
  sep "Fig. 6 — performance vs AutoFDO baseline (server workloads)";
  pf "paper: CSSPGO delivers +1%%..+5%% over AutoFDO; pseudo-instrumentation\n";
  pf "contributes 38-78%% of the gain; on HHVM, Instr PGO +2.4%% vs CSSPGO +1.5%%.\n\n";
  pf "%-12s %12s %12s %12s %12s\n" "workload" "no-pgo" "probe-only" "csspgo" "instr-pgo";
  List.iter
    (fun w ->
      pf "%-12s %+11.2f%% %+11.2f%% %+11.2f%% %+11.2f%%\n" w.D.w_name
        (gain_vs_autofdo w D.Nopgo)
        (gain_vs_autofdo w D.Csspgo_probe_only)
        (gain_vs_autofdo w D.Csspgo_full)
        (gain_vs_autofdo w D.Instr_pgo))
    W.Suite.server_workloads;
  (* probe-only share of full CSSPGO's gain, where both are positive *)
  pf "\nprobe-only share of full-CSSPGO gain (paper band: 38-78%%):\n";
  List.iter
    (fun w ->
      let po = gain_vs_autofdo w D.Csspgo_probe_only in
      let full = gain_vs_autofdo w D.Csspgo_full in
      if full > 0.05 && po >= 0.0 && po <= full then
        pf "  %-12s %5.0f%%\n" w.D.w_name (po /. full *. 100.0)
      else
        pf "  %-12s   n/a (probe-only %+.2f%%, full %+.2f%%)\n" w.D.w_name po full)
    W.Suite.server_workloads

let fig7 () =
  sep "Fig. 7 — code size vs AutoFDO";
  pf "paper: full CSSPGO noticeably smaller on 4/5 workloads; probe-only\n";
  pf "bigger than full (the pre-inliner is what saves size).\n\n";
  pf "%-12s %14s %14s\n" "workload" "probe-only" "csspgo(full)";
  List.iter
    (fun w ->
      pf "%-12s %+13.2f%% %+13.2f%%\n" w.D.w_name
        (size_vs_autofdo w D.Csspgo_probe_only)
        (size_vs_autofdo w D.Csspgo_full))
    W.Suite.server_workloads

let fig8 () =
  sep "Fig. 8 — pseudo-instrumentation run-time overhead (profiling builds)";
  pf "paper: within the P95 noise band on all workloads; one workload\n";
  pf "slightly faster with probes (blocked an undesirable optimization).\n\n";
  pf "%-12s %14s %14s %10s\n" "workload" "plain(cyc)" "probed(cyc)" "overhead";
  List.iter
    (fun w ->
      let _, _, plain = profiling_run ~probes:false w in
      let _, _, probed = profiling_run ~probes:true w in
      pf "%-12s %14Ld %14Ld %+9.2f%%\n" w.D.w_name plain probed
        ((Int64.to_float probed -. Int64.to_float plain) /. Int64.to_float plain *. 100.))
    W.Suite.server_workloads

let fig9 () =
  sep "Fig. 9 — metadata size overhead (vs binary incl. debug info)";
  pf "paper: probe metadata averages ~25%% of binary size; it is\n";
  pf "self-contained and never loaded at run time.\n\n";
  pf "%-12s %10s %12s %12s %12s %12s\n" "workload" "text(B)" "debug(B)" "probes(B)"
    "probe %%" "debug %%";
  let avg = ref 0.0 in
  List.iter
    (fun w ->
      let o = outcome w D.Csspgo_full in
      let total = o.D.o_text_size + o.D.o_debug_size + o.D.o_probe_meta_size in
      let pm = float_of_int o.D.o_probe_meta_size /. float_of_int total *. 100. in
      let dm = float_of_int o.D.o_debug_size /. float_of_int total *. 100. in
      avg := !avg +. pm;
      pf "%-12s %10d %12d %12d %11.1f%% %11.1f%%\n" w.D.w_name o.D.o_text_size
        o.D.o_debug_size o.D.o_probe_meta_size pm dm)
    W.Suite.server_workloads;
  pf "%-12s %47s %11.1f%%\n" "average" "" (!avg /. float_of_int (List.length W.Suite.server_workloads))

let table1 () =
  sep "Table I — HHVM profile quality and profiling overhead";
  pf "paper:               AutoFDO   CSSPGO   Instr PGO\n";
  pf "  block overlap        88.2%%    92.3%%      100%%\n";
  pf "  profiling overhead      0%%    0.04%%    73.06%%\n\n";
  let w = W.Suite.hhvm in
  let truth = (outcome w D.Instr_pgo).D.o_annotated in
  let ov v = Core.Quality.block_overlap ~truth (outcome w v).D.o_annotated *. 100. in
  (* Profiling overhead: training-run cycles vs the plain sampling run. *)
  let _, _, plain = profiling_run ~probes:false w in
  let _, _, probed = profiling_run ~probes:true w in
  let instr_cycles = (outcome w D.Instr_pgo).D.o_profiling_cycles in
  let ovh c = (Int64.to_float c -. Int64.to_float plain) /. Int64.to_float plain *. 100. in
  pf "measured:            AutoFDO   CSSPGO   Instr PGO\n";
  pf "  block overlap       %5.1f%%   %5.1f%%     %5.1f%%\n" (ov D.Autofdo)
    (ov D.Csspgo_full) (ov D.Instr_pgo);
  pf "  profiling overhead  %5.1f%%   %5.2f%%    %5.1f%%\n" 0.0 (ovh probed)
    (ovh instr_cycles);
  pf "\nblock overlap, all workloads (AutoFDO / CSSPGO):\n";
  List.iter
    (fun w ->
      let truth = (outcome w D.Instr_pgo).D.o_annotated in
      let ov v = Core.Quality.block_overlap ~truth (outcome w v).D.o_annotated *. 100. in
      pf "  %-12s %5.1f%% / %5.1f%%\n" w.D.w_name (ov D.Autofdo) (ov D.Csspgo_full))
    W.Suite.server_workloads

let client () =
  sep "§IV.D — client workload (clangish, short training run)";
  pf "paper (Clang bootstrap): CSSPGO +2.8%% perf, -5.5%% size;\n";
  pf "Instr PGO +6.6%% perf, -34%% size — the sampling-coverage gap is\n";
  pf "larger on client workloads than on servers.\n\n";
  let w = W.Suite.clangish in
  pf "measured vs AutoFDO:  perf        size\n";
  List.iter
    (fun v ->
      pf "  %-18s %+6.2f%%   %+7.2f%%\n" (D.variant_name v) (gain_vs_autofdo w v)
        (size_vs_autofdo w v))
    [ D.Csspgo_probe_only; D.Csspgo_full; D.Instr_pgo ]

let drift () =
  sep "§III.A — source drift: checksum-guarded profile reuse";
  pf "paper: a minor source change caused an 8%% loss for a workload under\n";
  pf "AutoFDO; CSSPGO detects CFG changes by checksum and tolerates\n";
  pf "comment-only edits. (See also examples/source_drift.exe.)\n\n";
  let base = "fn hot(a) {\n  let x = a * 3;\n  return x + 1;\n}\nfn main(a) { return hot(a); }" in
  let commented = "// release notes\n// reviewed by...\nfn hot(a) {\n  // fast path\n  let x = a * 3;\n  return x + 1;\n}\nfn main(a) { return hot(a); }" in
  let cfg_changed = "fn hot(a) {\n  let x = a * 3;\n  if (a > 1000) { x = x - 1; }\n  return x + 1;\n}\nfn main(a) { return hot(a); }" in
  let checksum src =
    let p = F.Lower.compile src in
    Core.Pseudo_probe.insert p;
    (Ir.Program.func p "hot").Ir.Func.checksum
  in
  pf "  checksum(base)          = %Lx\n" (checksum base);
  pf "  checksum(comment edit)  = %Lx  -> profile still valid\n" (checksum commented);
  pf "  checksum(CFG change)    = %Lx  -> profile rejected for 'hot'\n"
    (checksum cfg_changed)

(* ------------------------------------------------------------------ *)
(* Stale-profile matching: recovery vs edit distance, per variant.      *)

let stale () =
  sep "Stale matching — recovery vs edit distance (Drift + Stale_match)";
  pf "paper (§III.A): probe IDs keep correlating after the source drifts\n";
  pf "underneath the profile, where line-based correlation silently decays.\n";
  pf "Recovery = block overlap of the stale-matched build-N profile against\n";
  pf "instrumentation ground truth on version N+1.\n\n";
  let module O = Csspgo_orchestrator in
  let workloads = [ W.Suite.adretriever; W.Suite.adfinder; W.Suite.haas ] in
  let variants = [ D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full ] in
  let nv = List.length variants in
  let distances = W.Drift.distances in
  let seed_of wi = Int64.of_int ((7 * wi) + 11) in
  let per_wl =
    List.mapi
      (fun wi (w : D.workload) ->
        let seed = seed_of wi in
        let drifts =
          List.map (fun d -> (d, W.Drift.apply ~seed ~edits:d w.D.w_source)) distances
        in
        (w, seed, drifts))
      workloads
  in
  (* One orchestrated batch with a shared in-memory cache: the build-N
     profiling run of a (workload, variant) computes once, however many
     drift distances consume it. *)
  let plans =
    List.concat_map
      (fun ((w : D.workload), _, drifts) ->
        List.concat_map
          (fun (_, (dr : W.Drift.result)) ->
            let w_new = { w with D.w_source = dr.W.Drift.dr_source } in
            D.Plan.make ~variant:D.Instr_pgo w_new
            :: List.map
                 (fun v ->
                   D.Plan.make_stale ~variant:v ~stale_source:dr.W.Drift.dr_source w)
                 variants)
          drifts)
      per_wl
  in
  let outs =
    Array.of_list
      (O.Orchestrate.run_plans ~cache:(O.Cache.create ()) ~jobs:1 plans)
  in
  (* rows.(wi).(di).(vi) = (block overlap vs N+1 truth, count recovery) *)
  let rows =
    List.mapi
      (fun wi ((w : D.workload), seed, drifts) ->
        ( w,
          seed,
          List.mapi
            (fun di (d, _) ->
              let base = ((wi * List.length distances) + di) * (1 + nv) in
              let truth = outs.(base).D.o_annotated in
              ( d,
                List.mapi
                  (fun vi _ ->
                    let o = outs.(base + 1 + vi) in
                    let rr =
                      match o.D.o_stale_report with
                      | Some r -> Core.Stale_match.recovery_rate r
                      | None -> 1.0
                    in
                    (Core.Quality.block_overlap ~truth o.D.o_annotated, rr))
                  variants ))
            drifts ))
      per_wl
  in
  List.iter
    (fun ((w : D.workload), seed, drow) ->
      pf "%s (drift seed %Ld):\n" w.D.w_name seed;
      pf "  %5s" "dist";
      List.iter (fun v -> pf " %24s" (D.variant_name v)) variants;
      pf "\n";
      List.iter
        (fun (d, cells) ->
          pf "  %5d" d;
          List.iter
            (fun (ov, rr) -> pf "    %6.2f%% (counts %5.1f%%)" (ov *. 100.) (rr *. 100.))
            cells;
          pf "\n")
        drow)
    rows;
  (* Aggregate curve: mean overlap across the corpus per (variant, distance). *)
  let nw = float_of_int (List.length workloads) in
  let mean di vi =
    List.fold_left
      (fun acc (_, _, drow) -> acc +. fst (List.nth (snd (List.nth drow di)) vi))
      0.0 rows
    /. nw
  in
  pf "\naggregate (mean overlap across %d workloads):\n" (List.length workloads);
  pf "  %5s" "dist";
  List.iter (fun v -> pf " %18s" (D.variant_name v)) variants;
  pf "\n";
  List.iteri
    (fun di d ->
      pf "  %5d" d;
      List.iteri (fun vi _ -> pf "            %6.2f%%" (mean di vi *. 100.)) variants;
      pf "\n")
    distances;
  (* JSON dump: per-workload and aggregate recovery curves. *)
  let buf = Buffer.create 2048 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let float_list sel lst =
    String.concat ", " (List.map (fun x -> Printf.sprintf "%.4f" (sel x)) lst)
  in
  bpf "{\n  \"distances\": [%s],\n"
    (String.concat ", " (List.map string_of_int distances));
  bpf "  \"workloads\": [\n";
  List.iteri
    (fun i ((w : D.workload), seed, drow) ->
      bpf "    {\"name\": \"%s\", \"drift_seed\": %Ld,\n" w.D.w_name seed;
      bpf "     \"overlap\": {";
      List.iteri
        (fun vi v ->
          bpf "%s\"%s\": [%s]"
            (if vi = 0 then "" else ", ")
            (D.variant_name v)
            (float_list (fun (_, cells) -> fst (List.nth cells vi)) drow))
        variants;
      bpf "},\n     \"count_recovery\": {";
      List.iteri
        (fun vi v ->
          bpf "%s\"%s\": [%s]"
            (if vi = 0 then "" else ", ")
            (D.variant_name v)
            (float_list (fun (_, cells) -> snd (List.nth cells vi)) drow))
        variants;
      bpf "}}%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  bpf "  ],\n  \"aggregate_overlap\": {";
  List.iteri
    (fun vi v ->
      bpf "%s\"%s\": [%s]"
        (if vi = 0 then "" else ", ")
        (D.variant_name v)
        (String.concat ", "
           (List.mapi (fun di _ -> Printf.sprintf "%.4f" (mean di vi)) distances)))
    variants;
  bpf "},\n  \"cores\": %d\n}\n" (Domain.recommended_domain_count ());
  let oc = open_out "BENCH_stale.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  pf "wrote BENCH_stale.json\n";
  (* The paper's stability claim, enforced: at every edit distance > 0 the
     probe-based variants must recover strictly more aggregate overlap than
     the DWARF baseline (variant 0). *)
  List.iteri
    (fun di d ->
      if d > 0 then begin
        let dwarf = mean di 0 in
        List.iteri
          (fun vi v ->
            if vi > 0 && mean di vi <= dwarf then
              failwith
                (Printf.sprintf
                   "stale: %s aggregate overlap %.4f not above dwarf %.4f at distance %d"
                   (D.variant_name v) (mean di vi) dwarf d))
          variants
      end)
    distances

let ablation () =
  sep "Ablations — §III.B mitigations";
  (* Context depth requires surviving calls, so the trimming and
     missing-frame ablations profile with the in-compiler inliner off —
     like a production binary with deep call chains. *)
  let profile_no_inline (w : D.workload) =
    let prog = F.Lower.compile w.D.w_source in
    Core.Pseudo_probe.insert prog;
    let refp = Ir.Program.copy prog in
    Opt.Pass.optimize
      ~config:{ Opt.Config.o2_nopgo with Opt.Config.inline_mode = Opt.Config.Inline_none }
      prog;
    let bin = Cg.Emit.emit ~options:Cg.Emit.default_options prog in
    let log = Vm.Sample_log.create () in
    List.iter
      (fun (spec : D.run_spec) ->
        ignore
          (Vm.Machine.run
             ~pmu:(Some { Vm.Machine.default_pmu with sample_period = 1009 })
             ~sink:(Vm.Sample_log.sink log) ~globals_init:spec.D.rs_globals
             ~args:spec.D.rs_args bin ~entry:w.D.w_entry))
      w.D.w_train;
    (Core.Correlate.target (Core.Correlate.symbols refp) bin, log)
  in
  (* The untrimmed trie and Algorithm 1's stats of one recorded log. *)
  let contexts ~missing_frames (target, log) =
    let r =
      Core.Correlate.run ~jobs:1 ~missing_frames ~trim:0L Core.Correlate.Ctx target
        (Core.Correlate.Log log)
    in
    match r.Core.Correlate.profile with
    | P.Text_io.Ctx_prof trie -> (trie, r.Core.Correlate.stats)
    | _ -> assert false
  in
  let w = W.Suite.hhvm in
  (* 1. cold-context trimming: profile size with and without *)
  let trie, _ = contexts ~missing_frames:false (profile_no_inline W.Suite.haas) in
  let untrimmed = P.Ctx_profile.size_bytes trie in
  let n_before = P.Ctx_profile.n_nodes trie in
  let removed = P.Ctx_profile.trim_cold trie ~threshold:64L in
  let trimmed = P.Ctx_profile.size_bytes trie in
  pf "cold-context trimming (haas, recursive contexts): %d -> %d contexts (%d trimmed)\n"
    n_before (P.Ctx_profile.n_nodes trie) removed;
  pf "  profile size %d -> %d bytes (%.1fx reduction; paper: ~10x blowup tamed\n"
    untrimmed trimmed
    (float_of_int untrimmed /. float_of_int (max trimmed 1));
  pf "  to parity with context-insensitive profiles)\n\n";
  (* 2. missing-frame inference recovery rate on a tail-call-heavy build
     (adfinder's pass_all chain ends in a tail call when not inlined) *)
  let adfinder = profile_no_inline W.Suite.adfinder in
  let _, st_with = contexts ~missing_frames:true adfinder in
  let _, st_without = contexts ~missing_frames:false adfinder in
  let rate (s : Core.Ctx_reconstruct.stats) =
    let tot = s.Core.Ctx_reconstruct.st_gaps_resolved + s.Core.Ctx_reconstruct.st_gaps_failed in
    if tot = 0 then 100.0
    else
      float_of_int s.Core.Ctx_reconstruct.st_gaps_resolved /. float_of_int tot *. 100.
  in
  pf "missing-frame inference (adfinder, no-inline build, tail-call heavy):\n";
  pf "  with inferrer:    %d resolved / %d failed (%.0f%% recovered; paper: >2/3)\n"
    st_with.Core.Ctx_reconstruct.st_gaps_resolved st_with.Core.Ctx_reconstruct.st_gaps_failed
    (rate st_with);
  pf "  without inferrer: %d resolved / %d failed\n\n"
    st_without.Core.Ctx_reconstruct.st_gaps_resolved
    st_without.Core.Ctx_reconstruct.st_gaps_failed;
  (* 3. PEBS vs skid: haas is call/return dense (recursive evaluator), so
     stack-lag misalignment actually shows up there. *)
  let wh = W.Suite.haas in
  let opts_skid =
    { D.default_options with
      D.pmu = { Vm.Machine.default_pmu with sample_period = 1009; pebs = false; skid_prob = 0.5 } }
  in
  let o_pebs = outcome wh D.Csspgo_full in
  let o_skid = D.run_variant ~options:opts_skid D.Csspgo_full wh in
  let drop (o : D.outcome) =
    match o.D.o_recon_stats with
    | Some s ->
        float_of_int s.Core.Ctx_reconstruct.st_dropped_misaligned
        /. float_of_int (max s.Core.Ctx_reconstruct.st_samples 1)
        *. 100.
    | None -> 0.0
  in
  pf "PEBS synchronization (haas): dropped samples %.1f%% with PEBS,\n" (drop o_pebs);
  pf "  %.1f%% without (skid detection; paper: PEBS eliminates the skid)\n\n" (drop o_skid);
  (* 4. layout algorithm: full Ext-TSP greedy (default) vs hot-path DFS *)
  let opts_dfs =
    { D.default_options with
      D.emit_opts = { Cg.Emit.default_options with Cg.Emit.layout = `Hot_path } }
  in
  let o_dfs = D.run_variant ~options:opts_dfs D.Csspgo_full w in
  pf "block layout (hhvm, full CSSPGO): Ext-TSP greedy (default) %Ld cycles,\n"
    (outcome w D.Csspgo_full).D.o_eval.D.ev_cycles;
  pf "  hot-path DFS %Ld cycles (Ext-TSP %+.2f%% better)\n\n" o_dfs.D.o_eval.D.ev_cycles
    ((Int64.to_float o_dfs.D.o_eval.D.ev_cycles
     -. Int64.to_float (outcome w D.Csspgo_full).D.o_eval.D.ev_cycles)
    /. Int64.to_float o_dfs.D.o_eval.D.ev_cycles
    *. 100.);
  (* 5. the "flexible framework" knob (§III.A): probes as strong barriers *)
  let strong =
    { Opt.Config.o2_nopgo with Opt.Config.probes_strong = true }
  in
  let overhead_of config =
    let build ~probes =
      let prog = F.Lower.compile w.D.w_source in
      if probes then Core.Pseudo_probe.insert prog;
      Opt.Pass.optimize ~config prog;
      let bin = Cg.Emit.emit ~options:Cg.Emit.default_options prog in
      List.fold_left
        (fun acc (spec : D.run_spec) ->
          Int64.add acc
            (Vm.Machine.run ~pmu:None ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args
               bin ~entry:w.D.w_entry)
              .Vm.Machine.cycles)
        0L w.D.w_train
    in
    let plain = build ~probes:false in
    let probed = build ~probes:true in
    (Int64.to_float probed -. Int64.to_float plain) /. Int64.to_float plain *. 100.
  in
  pf "probe strength (hhvm profiling build, the §III.A flexibility knob):\n";
  pf "  fine-tuned (default) probes: %+.2f%% run-time overhead\n"
    (overhead_of Opt.Config.o2_nopgo);
  pf "  strong-barrier probes:       %+.2f%% run-time overhead\n"
    (overhead_of strong);
  pf "  (stronger barriers preserve more control flow for correlation at\n";
  pf "   the price of run-time cost — the paper's overhead/accuracy dial)\n\n";
  (* 6. LBR depth 16 vs 32 *)
  let recon_with depth =
    let opts =
      { D.default_options with
        D.pmu = { Vm.Machine.default_pmu with sample_period = 1009; lbr_depth = depth } }
    in
    let o = D.run_variant ~options:opts D.Csspgo_probe_only W.Suite.adretriever in
    Core.Quality.block_overlap
      ~truth:(outcome W.Suite.adretriever D.Instr_pgo).D.o_annotated o.D.o_annotated
    *. 100.
  in
  pf "LBR depth (adretriever, probe-only overlap): 16-deep %.1f%%, 32-deep %.1f%%\n\n"
    (recon_with 16) (recon_with 32);
  (* 7. pre-inliner on/off *)
  let o_nopre = D.run_variant ~options:{ D.default_options with D.preinline = None } D.Csspgo_full w in
  pf "pre-inliner (hhvm): full %+.2f%% vs no-pre-inliner %+.2f%% (over AutoFDO)\n"
    (gain_vs_autofdo w D.Csspgo_full)
    ((cycles w D.Autofdo -. Int64.to_float o_nopre.D.o_eval.D.ev_cycles)
    /. cycles w D.Autofdo *. 100.)

(* ------------------------------------------------------------------ *)
(* Orchestrator: parallel plan scheduling + content-addressed cache.   *)

let orch () =
  sep "Orchestrator — plan scheduling and artifact cache (lib/orchestrator)";
  let module O = Csspgo_orchestrator in
  let variants =
    [ D.Nopgo; D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full; D.Instr_pgo ]
  in
  let workloads = W.Suite.server_workloads in
  let matrix ~cache jobs = O.Orchestrate.run_matrix ~cache ~jobs ~variants ~workloads () in
  (* Byte-level digest of everything a build produces. [o_annotated] is
     excluded: its hashtable images are layout-sensitive even when every
     annotation in them is equal. *)
  let digest (w, v, (o : D.outcome)) =
    ( w.D.w_name,
      D.variant_name v,
      Marshal.to_string o.D.o_binary [],
      o.D.o_eval,
      o.D.o_text_size,
      o.D.o_debug_size,
      o.D.o_probe_meta_size,
      o.D.o_profiling_cycles,
      o.D.o_profile_size )
  in
  (* 1. serial vs parallel schedule, each with a fresh in-memory cache *)
  let ncores = Domain.recommended_domain_count () in
  let rs, ts = time (fun () -> matrix ~cache:(O.Cache.create ()) 1) in
  let rp, tp = time (fun () -> matrix ~cache:(O.Cache.create ()) 4) in
  let n = List.length rs in
  pf "%d variants x %d workloads = %d PGO builds (host: %d core%s):\n"
    (List.length variants) (List.length workloads) n ncores
    (if ncores = 1 then "" else "s");
  pf "  serial   (-j 1)   %6.2fs\n" ts;
  pf "  parallel (-j 4)   %6.2fs   speedup %.2fx (target: >= 2x on >= 4 cores)\n"
    tp (ts /. tp);
  if ncores < 4 then
    pf "  (domains are time-sliced on this host; minor-GC barriers make\n\
       \   oversubscription a cost, not a win — the -j 4 run is kept as a\n\
       \   scheduler-correctness exercise, not a timing claim)\n";
  let identical = List.for_all2 (fun a b -> digest a = digest b) rs rp in
  pf "  parallel outcomes byte-identical to serial: %s\n"
    (if identical then "yes" else "NO");
  if not identical then failwith "orch: parallel schedule diverged from serial";
  (* 2. cold vs warm disk cache, parallel schedule both times *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "csspgo-bench-cache.%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then ignore (O.Cache.clear_dir dir);
  let disk_jobs = max 1 (min 4 ncores) in
  let c_cold = O.Cache.create ~dir () in
  let rc, tc = time (fun () -> matrix ~cache:c_cold disk_jobs) in
  let c_warm = O.Cache.create ~dir () in
  let rw, tw = time (fun () -> matrix ~cache:c_warm disk_jobs) in
  let sc = O.Cache.stats c_cold and sw = O.Cache.stats c_warm in
  let ds = O.Cache.scan_dir dir in
  pf "disk cache, same matrix twice (-j %d):\n" disk_jobs;
  pf "  cold   %6.2fs   (%d hits / %d misses / %d stores)\n" tc sc.O.Cache.hits
    sc.O.Cache.misses sc.O.Cache.stores;
  pf "  warm   %6.2fs   (%d hits / %d misses)   %.1fx faster than cold\n" tw
    sw.O.Cache.hits sw.O.Cache.misses (tc /. tw);
  pf "  on disk: %d entries, %d bytes\n" ds.O.Cache.d_entries ds.O.Cache.d_bytes;
  (* Warm runs re-serve every stage from disk. For Csspgo_full the
     pre-inliner walks the round-tripped trie, whose heap tie-breaking is
     layout-sensitive, so byte-identity is only asserted for the other
     variants; the full variant must still agree on the evaluation. *)
  let warm_ok =
    List.for_all2
      (fun ((_, v, oc) as a) ((_, _, ow) as b) ->
        if v = D.Csspgo_full then oc.D.o_eval = ow.D.o_eval else digest a = digest b)
      rc rw
  in
  pf "  warm outcomes match cold: %s\n" (if warm_ok then "yes" else "NO");
  if not warm_ok then failwith "orch: warm cache diverged from cold";
  ignore (O.Cache.clear_dir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: the offline components' own cost.         *)

let micro () =
  sep "Microbenchmarks (Bechamel) — offline pipeline component cost";
  let w = W.Suite.adretriever in
  let pbin, log, _ = profiling_run ~probes:true w in
  let refp =
    let p = F.Lower.compile w.D.w_source in
    Core.Pseudo_probe.insert p;
    p
  in
  let checksum_of g =
    match Ir.Program.find_func_by_guid refp g with Some f -> f.Ir.Func.checksum | None -> 0L
  in
  let log_short = List.hd (Vm.Sample_log.split ~chunk:500 log) in
  let reconstruct () =
    let st = Core.Ctx_reconstruct.start ~checksum_of (Csspgo_profgen.Bindex.create pbin) in
    Vm.Sample_log.iter log_short (Core.Ctx_reconstruct.feed st);
    Core.Ctx_reconstruct.finish st
  in
  let annotated = (outcome w D.Csspgo_probe_only).D.o_annotated in
  let open Bechamel in
  let tests =
    [
      (* Fig.6/Table I pipeline: Algorithm 1 context reconstruction *)
      Test.make ~name:"algo1-reconstruct-500-samples"
        (Staged.stage (fun () -> ignore (reconstruct ())));
      (* profile inference (Profi / MCF) on an annotated program *)
      Test.make ~name:"mcf-inference-program"
        (Staged.stage (fun () ->
             let p = Ir.Program.copy annotated in
             Csspgo_inference.Infer.infer p));
      (* Ext-TSP style layout *)
      Test.make ~name:"layout-order-program"
        (Staged.stage (fun () ->
             Ir.Program.iter_funcs
               (fun f -> ignore (Cg.Layout.order ~split:true f))
               annotated));
      (* Algorithm 2+3: pre-inliner over a fresh trie *)
      Test.make ~name:"algo2-preinliner"
        (Staged.stage (fun () ->
             let trie, _ = reconstruct () in
             ignore (P.Ctx_profile.trim_cold trie ~threshold:8L);
             let sizes = Core.Size_extract.compute pbin in
             ignore (Core.Preinliner.run trie sizes)));
      (* DWARF correlation for the AutoFDO baseline *)
      Test.make ~name:"dwarf-correlate-500-samples"
        (Staged.stage (fun () ->
             let agg = Csspgo_profgen.Ranges.create () in
             Vm.Sample_log.iter log_short (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
                 Csspgo_profgen.Ranges.feed agg ~lbr ~lbr_len);
             ignore (Csspgo_profgen.Dwarf_corr.correlate_agg pbin agg)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" ~fmt:"%s/%s" [ test ]) in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> pf "  %-36s %12.1f us/run\n" name (est /. 1000.)
          | _ -> pf "  %-36s (no estimate)\n" name)
        ols)
    tests

(* ------------------------------------------------------------------ *)
(* Observability overhead: the streaming correlate pipeline with a live  *)
(* metrics registry vs the null one. The design target is "free when      *)
(* off, cheap when on": instruments bump local state on the hot path and *)
(* flush to the registry at stage finish.                                *)

let obs_overhead () =
  sep "Obs — telemetry overhead on the streaming correlate pipeline (adretriever)";
  let module Pg = Csspgo_profgen in
  let module M = Csspgo_obs.Metrics in
  let w = W.Suite.adretriever in
  let prog = F.Lower.compile w.D.w_source in
  Core.Pseudo_probe.insert prog;
  let refp = Ir.Program.copy prog in
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo prog;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options prog in
  let name_of g =
    Option.map (fun f -> f.Ir.Func.name) (Ir.Program.find_func_by_guid refp g)
  in
  let checksum_of g =
    match Ir.Program.find_func_by_guid refp g with Some f -> f.Ir.Func.checksum | None -> 0L
  in
  let period = 499 in
  let pmu = Some { Vm.Machine.default_pmu with sample_period = period } in
  let log = Vm.Sample_log.create () in
  List.iter
    (fun (spec : D.run_spec) ->
      ignore
        (Vm.Machine.run ~pmu ~sink:(Vm.Sample_log.sink log)
           ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args bin ~entry:w.D.w_entry))
    w.D.w_train;
  Vm.Sample_log.compact log;
  let n = Vm.Sample_log.n_samples log in
  pf "profiling run: %d samples (period %d)\n" n period;
  let streaming ?obs () =
    let ix = Pg.Bindex.create bin in
    let agg = Pg.Ranges.create () in
    let mb = Core.Missing_frame.start ?obs ix in
    Vm.Sample_log.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
        Pg.Ranges.feed agg ~lbr ~lbr_len;
        Core.Missing_frame.feed mb ~lbr ~lbr_len);
    let missing = Core.Missing_frame.finish mb in
    let flat = Core.Probe_corr.correlate_agg ~name_of ~index:ix ~checksum_of ?obs bin agg in
    let st = Core.Ctx_reconstruct.start ~name_of ~missing ~checksum_of ?obs ix in
    Vm.Sample_log.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
        Core.Ctx_reconstruct.feed st ~lbr ~lbr_len ~stack ~stack_len);
    let trie, _ = Core.Ctx_reconstruct.finish st in
    (flat, trie)
  in
  let open Bechamel in
  let estimate name f =
    let test = Test.make ~name (Staged.stage f) in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:None () in
    let results =
      Benchmark.all cfg [ instance ]
        (Test.make_grouped ~name:"obs" ~fmt:"%s/%s" [ test ])
    in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        instance results
    in
    let est = ref nan in
    Hashtbl.iter
      (fun _ o ->
        match Analyze.OLS.estimates o with Some [ e ] -> est := e | _ -> ())
      ols;
    !est
  in
  let live = M.create () in
  let ns_off = estimate "telemetry-off" (fun () -> ignore (streaming ())) in
  let ns_null = estimate "telemetry-null" (fun () -> ignore (streaming ~obs:M.null ())) in
  let ns_on = estimate "telemetry-on" (fun () -> ignore (streaming ~obs:live ())) in
  let pct a = (a /. ns_off -. 1.) *. 100. in
  pf "no obs argument:     %10.2f ms/pipeline\n" (ns_off /. 1e6);
  pf "null registry:       %10.2f ms/pipeline  (%+.1f%%)\n" (ns_null /. 1e6) (pct ns_null);
  pf "live registry:       %10.2f ms/pipeline  (%+.1f%%)\n" (ns_on /. 1e6) (pct ns_on);
  let snap = M.snapshot live in
  (match M.find_counter snap "ctx.samples" with
  | Some c -> pf "live registry saw %d ctx samples across timed runs\n" c
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Binary profile format: decode vs text parse on an hhvm-scale profile, *)
(* plus the profile-delta incremental rebuild the fingerprints enable.   *)

let format_bench () =
  sep "Format — binary profile codec vs text, and delta-driven rebuilds";
  let module O = Csspgo_orchestrator in
  let open Bechamel in
  let estimate name f =
    let test = Test.make ~name (Staged.stage f) in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
    let results =
      Benchmark.all cfg [ instance ]
        (Test.make_grouped ~name:"format" ~fmt:"%s/%s" [ test ])
    in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        instance results
    in
    let est = ref nan in
    Hashtbl.iter
      (fun _ o ->
        match Analyze.OLS.estimates o with Some [ e ] -> est := e | _ -> ())
      ols;
    !est (* ns per run *)
  in
  (* hhvm at a dense sample period: the biggest profiles the substrate
     produces, one context trie and one flat probe profile. *)
  let w = W.Suite.hhvm in
  let opts =
    { D.default_options with
      D.pmu = { Vm.Machine.default_pmu with sample_period = 499 } }
  in
  let texts = D.profile_pipeline_texts ~options:opts ~replay:false D.Csspgo_full w in
  pf "profile codec (hhvm, dense period %d):\n" 499;
  let shapes =
    List.map
      (fun (tag, text) ->
        let p = P.Text_io.of_string text in
        let b = P.Binary_io.encode p in
        (match P.Binary_io.decode b with
        | Ok p' when String.equal (P.Text_io.to_string p') text -> ()
        | _ -> failwith ("format: binary round-trip failed for " ^ tag));
        let ns_parse = estimate (tag ^ "-text-parse") (fun () -> ignore (P.Text_io.of_string text)) in
        let ns_decode =
          estimate (tag ^ "-binary-decode") (fun () ->
              match P.Binary_io.decode b with Ok p -> ignore p | Error _ -> assert false)
        in
        let ns_encode = estimate (tag ^ "-binary-encode") (fun () -> ignore (P.Binary_io.encode p)) in
        let speedup = ns_parse /. ns_decode in
        pf "  %-12s text %8d B, %8.1f us parse | binary %8d B, %8.1f us decode, %8.1f us encode\n"
          tag (String.length text) (ns_parse /. 1e3) (String.length b)
          (ns_decode /. 1e3) (ns_encode /. 1e3);
        pf "  %-12s decode speedup %.2fx (target >= 3x), size %.2fx smaller\n" ""
          speedup
          (float_of_int (String.length text) /. float_of_int (String.length b));
        (tag, String.length text, String.length b, ns_parse, ns_decode, ns_encode, speedup))
      texts
  in
  (* Sample-log codec on the same run shape. *)
  let log =
    let prog = F.Lower.compile w.D.w_source in
    Core.Pseudo_probe.insert prog;
    Opt.Pass.optimize ~config:Opt.Config.o2_nopgo prog;
    let bin = Cg.Emit.emit ~options:Cg.Emit.default_options prog in
    let pmu = Some { Vm.Machine.default_pmu with sample_period = 499 } in
    let log = Vm.Sample_log.create () in
    List.iter
      (fun (spec : D.run_spec) ->
        ignore
          (Vm.Machine.run ~pmu ~sink:(Vm.Sample_log.sink log)
             ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args bin
             ~entry:w.D.w_entry))
      w.D.w_train;
    Vm.Sample_log.compact log;
    log
  in
  let log_text = Vm.Sample_log.to_text log in
  let log_bin = Vm.Sample_log.encode log in
  let ns_log_parse =
    estimate "log-text-parse" (fun () ->
        match Vm.Sample_log.of_text log_text with Ok l -> ignore l | Error _ -> assert false)
  in
  let ns_log_decode =
    estimate "log-binary-decode" (fun () ->
        match Vm.Sample_log.decode log_bin with Ok l -> ignore l | Error _ -> assert false)
  in
  pf "sample log (%d samples): text %d B, %.1f us parse | binary %d B, %.1f us decode (%.2fx)\n"
    (Vm.Sample_log.n_samples log) (String.length log_text) (ns_log_parse /. 1e3)
    (String.length log_bin) (ns_log_decode /. 1e3) (ns_log_parse /. ns_log_decode);
  (* Delta-driven incremental rebuild: warm rerun is a whole-binary hit;
     rebuilding a second drifted version against the first one's cache
     recompiles only the re-edited function (test/test_incremental.ml pins
     the counters; here we time it). *)
  let wc = W.Suite.clangish in
  let plan = D.Plan.make ~variant:D.Csspgo_full wc in
  let stale seed =
    let d = W.Drift.apply ~seed ~edits:1 wc.D.w_source in
    D.Plan.make_stale ~variant:D.Csspgo_full ~stale_source:d.W.Drift.dr_source wc
  in
  let cache = O.Cache.create () in
  let _, t_cold = time (fun () -> D.Plan.run ~hooks:(O.Orchestrate.hooks cache) plan) in
  let _, t_warm = time (fun () -> D.Plan.run ~hooks:(O.Orchestrate.hooks cache) plan) in
  let _, t_a = time (fun () -> D.Plan.run ~hooks:(O.Orchestrate.hooks cache) (stale 3L)) in
  let module M = Csspgo_obs.Metrics in
  let obs = M.create () in
  let _, t_delta =
    time (fun () -> D.Plan.run ~hooks:(O.Orchestrate.hooks ~obs cache) (stale 4L))
  in
  let plan_count name = Option.value ~default:0 (M.find_counter (M.snapshot obs) name) in
  let n_rec = plan_count "plan.rebuild.funcs-recompiled" in
  let n_reu = plan_count "plan.rebuild.funcs-reused" in
  pf "incremental rebuild (clangish, full CSSPGO, in-memory cache):\n";
  pf "  cold build                 %7.3fs\n" t_cold;
  pf "  warm rerun (binary hit)    %7.3fs   (%.1fx faster)\n" t_warm (t_cold /. t_warm);
  pf "  drifted rebuild (v2)       %7.3fs\n" t_a;
  pf "  delta rebuild (v2 -> v2')  %7.3fs   (%d recompiled, %d reused)\n" t_delta
    n_rec n_reu;
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n  \"workload\": \"hhvm\",\n  \"sample_period\": 499,\n  \"profiles\": [\n";
  List.iteri
    (fun i (tag, tb, bb, np, nd, ne, sp) ->
      bpf
        "    {\"tag\": \"%s\", \"text_bytes\": %d, \"binary_bytes\": %d,\n\
        \     \"parse_ns\": %.0f, \"decode_ns\": %.0f, \"encode_ns\": %.0f,\n\
        \     \"decode_speedup\": %.3f}%s\n"
        tag tb bb np nd ne sp
        (if i = List.length shapes - 1 then "" else ","))
    shapes;
  bpf "  ],\n";
  bpf "  \"sample_log\": {\"n_samples\": %d, \"text_bytes\": %d, \"binary_bytes\": %d,\n"
    (Vm.Sample_log.n_samples log) (String.length log_text) (String.length log_bin);
  bpf "    \"parse_ns\": %.0f, \"decode_ns\": %.0f, \"decode_speedup\": %.3f},\n"
    ns_log_parse ns_log_decode (ns_log_parse /. ns_log_decode);
  bpf "  \"incremental\": {\"workload\": \"clangish\", \"cold_s\": %.4f, \"warm_s\": %.4f,\n"
    t_cold t_warm;
  bpf "    \"drifted_s\": %.4f, \"delta_s\": %.4f, \"delta_recompiled\": %d, \"delta_reused\": %d},\n"
    t_a t_delta n_rec n_reu;
  bpf "  \"cores\": %d\n}\n" (Domain.recommended_domain_count ());
  let oc = open_out "BENCH_format.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  pf "wrote BENCH_format.json\n";
  List.iter
    (fun (tag, _, _, _, _, _, sp) ->
      if sp < 3.0 then
        failwith
          (Printf.sprintf "format: %s binary decode speedup %.2fx below 3x target" tag sp))
    shapes

(* ------------------------------------------------------------------ *)
(* Fleet — continuous profiling: sharded collection, duty cycling,      *)
(* version skew, and the release train.                                 *)

let fleet_bench () =
  sep "Fleet — continuous profiling (sharded collectors, cross-version merge)";
  let module Fl = Csspgo_fleet in
  let w = W.Suite.adfinder in
  let options = D.default_options in
  let version ?(id = 0) ?(n = 1) src =
    { Fl.Sim.v_id = id; v_source = src; v_weight = 1L; v_instances = n }
  in
  (* One rebuild measurement per distinct source: inject the merged
     profile through the plan pipeline, compare against no-PGO and the
     instrumentation truth of the same source. *)
  let baselines = Hashtbl.create 8 in
  let measure src (out : Fl.Sim.outcome) =
    let gen_w = { w with D.w_source = src } in
    let nopgo, truth =
      match Hashtbl.find_opt baselines src with
      | Some b -> b
      | None ->
          let b =
            ( (D.run_variant ~options D.Nopgo gen_w).D.o_eval,
              (D.run_variant ~options D.Instr_pgo gen_w).D.o_annotated )
          in
          Hashtbl.replace baselines src b;
          b
    in
    let o =
      D.Plan.run
        (D.Plan.make_with_profile ~options ~profile:out.Fl.Sim.fs_profile
           ?flat:out.Fl.Sim.fs_flat gen_w)
    in
    let speedup =
      Int64.to_float nopgo.D.ev_cycles /. Int64.to_float o.D.o_eval.D.ev_cycles
    in
    (speedup, Core.Quality.block_overlap ~truth o.D.o_annotated)
  in
  (* Fleet-size sweep at full duty: the merged profile must be
     byte-identical to the single-instance baseline whatever the fleet
     size — sharding and partitioning must be invisible. *)
  let sizes = [ 1; 4; 16; 64 ] in
  let size_cfg =
    { Fl.Sim.default with Fl.Sim.f_options = options; f_request_copies = 64 }
  in
  pf "fleet size sweep (duty 1.0, %d stream copies):\n" 64;
  let single = ref "" in
  let size_rows =
    List.map
      (fun n ->
        let out =
          Fl.Sim.run size_cfg ~workload:w ~versions:[ version ~n w.D.w_source ]
        in
        let text = P.Text_io.to_string out.Fl.Sim.fs_profile in
        if n = 1 then single := text;
        let identical = String.equal text !single in
        if not identical then
          failwith
            (Printf.sprintf
               "fleet: %d-instance merged profile differs from single-instance baseline" n);
        let speedup, overlap = measure w.D.w_source out in
        pf "  %3d instances: %7d samples %8d bytes %4d batches  speedup %.3f  overlap %.3f  identical %b\n"
          n out.Fl.Sim.fs_samples out.Fl.Sim.fs_bytes out.Fl.Sim.fs_batches
          speedup overlap identical;
        (n, out, speedup, overlap, identical))
      sizes
  in
  (* Duty-cycle sweep: fewer sampled requests, smaller shipped logs; the
     quality/overhead trade continuous profilers actually run. *)
  let duties = [ 1.0; 0.5; 0.25; 0.1 ] in
  pf "duty sweep (16 instances):\n";
  let duty_rows =
    List.map
      (fun duty ->
        let out =
          Fl.Sim.run
            { size_cfg with Fl.Sim.f_duty = duty }
            ~workload:w
            ~versions:[ version ~n:16 w.D.w_source ]
        in
        let speedup, overlap = measure w.D.w_source out in
        pf "  duty %4.2f: sampled %3d/%3d  %7d samples %8d bytes  speedup %.3f  overlap %.3f\n"
          duty out.Fl.Sim.fs_sampled out.Fl.Sim.fs_requests out.Fl.Sim.fs_samples
          out.Fl.Sim.fs_bytes speedup overlap;
        (duty, out, speedup, overlap))
      duties
  in
  (* Version-skew sweep: 1 + skew drifted versions in flight, stale-routed
     onto the newest and merged. *)
  let skews = [ 0; 1; 2 ] in
  pf "version skew sweep (cohort 4, 16 stream copies):\n";
  let skew_cfg =
    { Fl.Sim.default with Fl.Sim.f_options = options; f_request_copies = 16 }
  in
  let skew_rows =
    List.map
      (fun skew ->
        let sources =
          List.init (skew + 1) Fun.id
          |> List.fold_left
               (fun acc i ->
                 match acc with
                 | [] -> [ w.D.w_source ]
                 | prev :: _ ->
                     (W.Drift.apply ~seed:(Int64.of_int (100 + i)) ~edits:2 prev)
                       .W.Drift.dr_source
                     :: acc)
               []
          |> List.rev
        in
        let versions = List.mapi (fun id src -> version ~id ~n:4 src) sources in
        let out = Fl.Sim.run skew_cfg ~workload:w ~versions in
        let target_src = List.nth sources skew in
        let speedup, overlap = measure target_src out in
        let recovery =
          match out.Fl.Sim.fs_per_version with
        | [] -> 1.0
        | pvs ->
            let reps = List.filter_map (fun pv -> pv.Fl.Sim.pv_stale) pvs in
            if reps = [] then 1.0
            else
              List.fold_left
                (fun acc r -> acc +. Core.Stale_match.recovery_rate r)
                0.0 reps
              /. float_of_int (List.length reps)
        in
        pf "  skew %d: %d versions  %7d samples  recovery %.3f  speedup %.3f  overlap %.3f\n"
          skew (List.length versions) out.Fl.Sim.fs_samples recovery speedup
          overlap;
        (skew, out, recovery, speedup, overlap))
      skews
  in
  (* Release train: drift + fleet window + carried merge per generation. *)
  let train_cfg =
    {
      Fl.Train.default with
      Fl.Train.t_generations = 3;
      t_cohort = 4;
      t_fleet =
        { Fl.Sim.default with Fl.Sim.f_options = options; f_request_copies = 8 };
    }
  in
  let gens = Fl.Train.run train_cfg w in
  pf "release train (3 generations, skew 1, carry 1:3):\n";
  List.iter
    (fun (g : Fl.Train.generation) ->
      pf "  gen %d: speedup %.3f  overlap %s  carry-recovery %s\n" g.Fl.Train.g_id
        g.Fl.Train.g_speedup
        (match g.Fl.Train.g_overlap with
        | Some f -> Printf.sprintf "%.3f" f
        | None -> "-")
        (match g.Fl.Train.g_carry with
        | Some r -> Printf.sprintf "%.3f" (Core.Stale_match.recovery_rate r)
        | None -> "-"))
    gens;
  (* JSON export mirrors the other BENCH_* artifacts. *)
  let buf = Buffer.create 2048 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n  \"workload\": \"%s\",\n  \"fleet_sizes\": [\n" w.D.w_name;
  List.iteri
    (fun i (n, (out : Fl.Sim.outcome), speedup, overlap, identical) ->
      bpf
        "    {\"instances\": %d, \"samples\": %d, \"bytes\": %d, \"batches\": %d,\n\
        \     \"speedup\": %.4f, \"overlap\": %.4f, \"identical_to_single\": %b}%s\n"
        n out.Fl.Sim.fs_samples out.Fl.Sim.fs_bytes out.Fl.Sim.fs_batches speedup
        overlap identical
        (if i = List.length size_rows - 1 then "" else ","))
    size_rows;
  bpf "  ],\n  \"duty_sweep\": [\n";
  List.iteri
    (fun i (duty, (out : Fl.Sim.outcome), speedup, overlap) ->
      bpf
        "    {\"duty\": %.2f, \"sampled\": %d, \"requests\": %d, \"samples\": %d,\n\
        \     \"bytes\": %d, \"speedup\": %.4f, \"overlap\": %.4f}%s\n"
        duty out.Fl.Sim.fs_sampled out.Fl.Sim.fs_requests out.Fl.Sim.fs_samples
        out.Fl.Sim.fs_bytes speedup overlap
        (if i = List.length duty_rows - 1 then "" else ","))
    duty_rows;
  bpf "  ],\n  \"skew_sweep\": [\n";
  List.iteri
    (fun i (skew, (out : Fl.Sim.outcome), recovery, speedup, overlap) ->
      bpf
        "    {\"skew\": %d, \"versions\": %d, \"samples\": %d, \"recovery\": %.4f,\n\
        \     \"speedup\": %.4f, \"overlap\": %.4f}%s\n"
        skew (skew + 1) out.Fl.Sim.fs_samples recovery speedup overlap
        (if i = List.length skew_rows - 1 then "" else ","))
    skew_rows;
  bpf "  ],\n  \"train\": [\n";
  List.iteri
    (fun i (g : Fl.Train.generation) ->
      bpf "    {\"id\": %d, \"speedup\": %.4f, \"overlap\": %s, \"carry_recovery\": %s}%s\n"
        g.Fl.Train.g_id g.Fl.Train.g_speedup
        (match g.Fl.Train.g_overlap with
        | Some f -> Printf.sprintf "%.4f" f
        | None -> "null")
        (match g.Fl.Train.g_carry with
        | Some r -> Printf.sprintf "%.4f" (Core.Stale_match.recovery_rate r)
        | None -> "null")
        (if i = List.length gens - 1 then "" else ","))
    gens;
  bpf "  ],\n  \"cores\": %d\n}\n" (Domain.recommended_domain_count ());
  let oc = open_out "BENCH_fleet.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  pf "wrote BENCH_fleet.json\n"

(* ------------------------------------------------------------------ *)
(* Corr — sharded parallel correlation over chunk-framed sample logs:   *)
(* CSLG v2 decode vs text parse, then serial-vs-sharded correlation     *)
(* throughput at -j 1/2/4 with a byte-identity check at every point.    *)

let corr_bench () =
  sep "Corr — sharded parallel correlation over chunk-framed sample logs";
  let module Fl = Csspgo_fleet in
  let open Bechamel in
  let estimate name f =
    let test = Test.make ~name (Staged.stage f) in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
    let results =
      Benchmark.all cfg [ instance ]
        (Test.make_grouped ~name:"corr" ~fmt:"%s/%s" [ test ])
    in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        instance results
    in
    let est = ref nan in
    Hashtbl.iter
      (fun _ o ->
        match Analyze.OLS.estimates o with Some [ e ] -> est := e | _ -> ())
      ols;
    !est (* ns per run *)
  in
  let w = W.Suite.hhvm in
  let opts =
    { D.default_options with
      D.pmu = { Vm.Machine.default_pmu with sample_period = 499 } }
  in
  let b =
    Fl.Build.profiling_build ~options:opts ~shape:Fl.Build.Ctx
      ~source:w.D.w_source
  in
  let log =
    let log = Vm.Sample_log.create () in
    List.iter
      (fun (spec : D.run_spec) ->
        ignore
          (Vm.Machine.run ~pmu:(Some opts.D.pmu)
             ~sink:(Vm.Sample_log.sink log) ~globals_init:spec.D.rs_globals
             ~args:spec.D.rs_args b.Fl.Build.vb_bin ~entry:w.D.w_entry))
      w.D.w_train;
    Vm.Sample_log.compact log;
    log
  in
  let n = Vm.Sample_log.n_samples log in
  let blob = Vm.Sample_log.encode log in
  let log_text = Vm.Sample_log.to_text log in
  (* chunk-framed (v2) decode against the text parse of the same stream *)
  let ns_parse =
    estimate "log-text-parse" (fun () ->
        match Vm.Sample_log.of_text log_text with
        | Ok l -> ignore l
        | Error _ -> assert false)
  in
  let ns_decode =
    estimate "log-v2-decode" (fun () ->
        match Vm.Sample_log.decode blob with
        | Ok l -> ignore l
        | Error _ -> assert false)
  in
  let decode_speedup = ns_parse /. ns_decode in
  pf "sample log (hhvm, period %d): %d samples, %d chunks\n" 499 n
    (match Vm.Sample_log.decode_chunks blob with
    | Ok parts -> List.length parts
    | Error _ -> assert false);
  pf "  text parse %10.1f us | v2 decode %10.1f us  (%.2fx, target >= 3x)\n"
    (ns_parse /. 1e3) (ns_decode /. 1e3) decode_speedup;
  (* Sharded correlation. The shard target scales with the log so the
     shard count, not the production 4096-sample default, bounds the
     available parallelism on this substrate-sized log. *)
  let chunks =
    match Vm.Sample_log.decode_chunks blob with
    | Ok parts -> parts
    | Error _ -> assert false
  in
  let shard_target = max 256 (n / 16) in
  let n_shards =
    List.length (Core.Par_corr.plan ~target:shard_target chunks)
  in
  pf "correlation (ctx shape): %d shards (target %d samples/shard)\n" n_shards
    shard_target;
  let text (p, flat) =
    P.Text_io.to_string p
    ^
    match flat with
    | Some f -> P.Text_io.to_string (P.Text_io.Probe_prof f)
    | None -> ""
  in
  let serial_out = ref "" in
  let t_serial =
    time_best (fun () ->
        let out = text (Fl.Build.correlate ~options:opts ~shape:Fl.Build.Ctx b log) in
        serial_out := out;
        out)
  in
  pf "  serial       %8.3fs   %9.0f samples/s\n" t_serial
    (float_of_int n /. t_serial);
  let runs =
    List.map
      (fun jobs ->
        let out = ref "" in
        let t =
          time_best (fun () ->
              let o =
                text
                  (Fl.Build.correlate_chunks ~shard_target ~jobs ~options:opts
                     ~shape:Fl.Build.Ctx b chunks)
              in
              out := o;
              o)
        in
        if not (String.equal !out !serial_out) then
          failwith
            (Printf.sprintf "corr: -j %d output differs from serial" jobs);
        pf "  -j %d         %8.3fs   %9.0f samples/s  (%.2fx, identical)\n" jobs
          t
          (float_of_int n /. t)
          (t_serial /. t);
        (jobs, t))
      [ 1; 2; 4 ]
  in
  (* The other two shapes ride the identity check without timing. *)
  List.iter
    (fun shape ->
      let b =
        Fl.Build.profiling_build ~options:opts ~shape ~source:w.D.w_source
      in
      let log =
        let log = Vm.Sample_log.create () in
        List.iter
          (fun (spec : D.run_spec) ->
            ignore
              (Vm.Machine.run ~pmu:(Some opts.D.pmu)
                 ~sink:(Vm.Sample_log.sink log)
                 ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args
                 b.Fl.Build.vb_bin ~entry:w.D.w_entry))
          w.D.w_train;
        log
      in
      let serial = text (Fl.Build.correlate ~options:opts ~shape b log) in
      let par =
        text
          (Fl.Build.correlate_chunks ~shard_target ~jobs:4 ~options:opts ~shape
             b (Vm.Sample_log.split log))
      in
      if not (String.equal serial par) then
        failwith ("corr: " ^ Fl.Build.shape_name shape ^ " -j 4 differs"))
    [ Fl.Build.Lines; Fl.Build.Probes ];
  let cores = Domain.recommended_domain_count () in
  let t4 = List.assoc 4 runs in
  let speedup4 = t_serial /. t4 in
  let buf = Buffer.create 512 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n  \"workload\": \"hhvm\",\n  \"sample_period\": 499,\n";
  bpf "  \"n_samples\": %d,\n  \"n_shards\": %d,\n  \"cores\": %d,\n" n n_shards
    cores;
  bpf "  \"decode\": {\"parse_ns\": %.0f, \"decode_ns\": %.0f, \"speedup\": %.3f},\n"
    ns_parse ns_decode decode_speedup;
  bpf "  \"correlate\": {\"serial_s\": %.4f, \"serial_samples_per_s\": %.0f,\n"
    t_serial
    (float_of_int n /. t_serial);
  bpf "    \"jobs\": [\n";
  List.iteri
    (fun i (jobs, t) ->
      bpf "      {\"jobs\": %d, \"s\": %.4f, \"samples_per_s\": %.0f, \"speedup\": %.3f}%s\n"
        jobs t
        (float_of_int n /. t)
        (t_serial /. t)
        (if i = List.length runs - 1 then "" else ","))
    runs;
  bpf "    ]\n  }\n}\n";
  let oc = open_out "BENCH_corr.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  pf "wrote BENCH_corr.json\n";
  if decode_speedup < 3.0 then
    failwith
      (Printf.sprintf "corr: v2 decode speedup %.2fx below 3x target"
         decode_speedup);
  (* The scaling target needs the hardware to scale on; a 1-core host runs
     every domain on the same core, so assert only where 4 domains can
     actually run in parallel. *)
  if cores >= 4 then begin
    if speedup4 < 3.0 then
      failwith
        (Printf.sprintf "corr: -j 4 speedup %.2fx below 3x target" speedup4)
  end
  else
    pf "(-j 4 speedup %.2fx not asserted: only %d core(s) available)\n"
      speedup4 cores

(* ------------------------------------------------------------------ *)
(* Health — windowed telemetry: the per-window close cost against the   *)
(* collection window it closes (target < 1%), and the drift alarm: an   *)
(* injected mid-train edit spike must trip exactly one crit alert.      *)

let health_bench () =
  sep "Health — windowed telemetry overhead and the drift alarm";
  let module Fl = Csspgo_fleet in
  let module Obs = Csspgo_obs in
  let open Bechamel in
  let estimate name f =
    let test = Test.make ~name (Staged.stage f) in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
    let results =
      Benchmark.all cfg [ instance ]
        (Test.make_grouped ~name:"health" ~fmt:"%s/%s" [ test ])
    in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        instance results
    in
    let est = ref nan in
    Hashtbl.iter
      (fun _ o ->
        match Analyze.OLS.estimates o with Some [ e ] -> est := e | _ -> ())
      ols;
    !est
  in
  let w = W.Suite.adfinder in
  let fleet_cfg = { Fl.Sim.default with Fl.Sim.f_request_copies = 2 } in
  let versions =
    [ { Fl.Sim.v_id = 0; v_source = w.D.w_source; v_weight = 1L; v_instances = 4 } ]
  in
  (* One real collection window populates the registry the close cost is
     measured against. *)
  let metrics = Obs.Metrics.create () in
  let t_window =
    time_best (fun () -> Fl.Sim.run ~obs:metrics fleet_cfg ~workload:w ~versions)
  in
  (* The health layer's marginal cost per window is one registry snapshot,
     one series record and one health observe; the overhead claim is that
     ratio, not a wall-clock difference two runs of the window itself would
     bury in noise. *)
  let series = Obs.Series.create () in
  let obs_tracker = Obs.Health.create () in
  let ns_close =
    estimate "window-close" (fun () ->
        let snap = Obs.Metrics.snapshot metrics in
        ignore (Obs.Series.record series snap);
        ignore (Obs.Health.observe obs_tracker snap))
  in
  let ns_window = t_window *. 1e9 in
  let overhead_pct = 100.0 *. ns_close /. ns_window in
  pf "collection window (adfinder, 4 instances):   %8.2f ms\n" (t_window *. 1e3);
  pf "window close (snapshot + series + health):   %8.2f us  (%.4f%% of the window)\n"
    (ns_close /. 1e3) overhead_pct;
  (* End-to-end cross-check: whole windows with and without the layer. *)
  let t_plain =
    time_best (fun () ->
        Fl.Sim.run ~obs:(Obs.Metrics.create ()) fleet_cfg ~workload:w ~versions)
  in
  let t_obs =
    time_best (fun () ->
        let m = Obs.Metrics.create () in
        let s = Obs.Series.create () in
        let h = Obs.Health.create () in
        Fl.Sim.run ~obs:m ~series:s ~health:h fleet_cfg ~workload:w ~versions)
  in
  pf "end-to-end: metrics only %.2f ms | + series + health %.2f ms  (%+.2f%%)\n"
    (t_plain *. 1e3) (t_obs *. 1e3)
    (100. *. (t_obs /. t_plain -. 1.));
  (* Drift alarm: a 4-generation train drifting 2 edits per release, with a
     4-edit spike injected at the transition into generation 2. The EWMA
     detector must flag the spike window — and only the spike window — as a
     crit regression. *)
  let train_cfg =
    {
      Fl.Train.default with
      Fl.Train.t_generations = 4;
      t_edits = 2;
      t_edit_schedule = [ 2; 4 ];
      t_skew = 1;
      t_cohort = 2;
      t_overlap = false;
      t_fleet = { Fl.Sim.default with Fl.Sim.f_request_copies = 2 };
    }
  in
  let tracker = Obs.Health.create () in
  let gens = Fl.Train.run ~health:tracker train_cfg w in
  let rep = Obs.Health.report tracker in
  pf "drift alarm (4 generations, spike 4 edits into gen 2):\n";
  print_string (Obs.Health.report_to_text rep);
  let crit_alerts =
    List.filter
      (fun (a : Obs.Health.alert) -> a.Obs.Health.al_level = Obs.Health.Crit)
      rep.Obs.Health.hp_alerts
  in
  let n_windows = List.length rep.Obs.Health.hp_windows in
  let cores = Domain.recommended_domain_count () in
  let buf = Buffer.create 512 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n  \"workload\": \"adfinder\",\n";
  bpf "  \"window_ms\": %.3f,\n  \"close_us\": %.3f,\n" (t_window *. 1e3)
    (ns_close /. 1e3);
  bpf "  \"overhead_pct\": %.4f,\n" overhead_pct;
  bpf "  \"end_to_end\": {\"plain_ms\": %.3f, \"telemetry_ms\": %.3f},\n"
    (t_plain *. 1e3) (t_obs *. 1e3);
  bpf "  \"windows\": %d,\n  \"crit_alerts\": %d,\n" n_windows
    (List.length crit_alerts);
  (match crit_alerts with
  | [ a ] ->
      bpf "  \"alert_window\": %d,\n  \"alert_indicator\": \"%s\",\n"
        a.Obs.Health.al_window a.Obs.Health.al_indicator
  | _ -> ());
  bpf "  \"cores\": %d\n}\n" cores;
  let oc = open_out "BENCH_health.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  pf "wrote BENCH_health.json\n";
  ignore gens;
  if overhead_pct >= 1.0 then
    failwith
      (Printf.sprintf "health: window-close overhead %.4f%% above 1%% target"
         overhead_pct);
  (match crit_alerts with
  | [ a ] when a.Obs.Health.al_window = 2 -> ()
  | [ a ] ->
      failwith
        (Printf.sprintf "health: crit alert on window %d, expected the spike window 2"
           a.Obs.Health.al_window)
  | l ->
      failwith
        (Printf.sprintf "health: %d crit alerts, expected exactly 1 (the spike)"
           (List.length l)))

(* ------------------------------------------------------------------ *)
(* Labels: blended vs label-sliced PGO on multi-tenant mixes. The paper
   never measures this — its pipeline blends every sample into one
   profile — so the question is what per-tenant specialization buys as
   the traffic skews away from the minority tenant, and whether a
   drifting (diurnal) mix changes the answer. Each mix is served through
   the full tenancy loop: labeled fleet serving, v3 log reassembly,
   per-label sliced correlation, then a specialized and a blended build
   per tenant scored against that tenant's own instrumentation ground
   truth. *)

let labels_bench () =
  sep "Labels — blended vs label-sliced PGO across tenant skew and drift";
  let module Fl = Csspgo_fleet in
  let requests = 16 in
  let cfg = { Fl.Tenancy.default with Fl.Tenancy.ty_jobs = 2 } in
  let run ~tag ~diurnal (w_maj, w_min) =
    let tenants =
      [
        {
          W.Mix.t_name = "adretriever";
          t_workload = W.Suite.adretriever;
          t_weight = w_maj;
        };
        { W.Mix.t_name = "adfinder"; t_workload = W.Suite.adfinder; t_weight = w_min };
      ]
    in
    let mix = W.Mix.make ~seed:7L ~requests ~diurnal_period:diurnal tenants in
    let co = Fl.Tenancy.collect cfg mix in
    let sp = Fl.Tenancy.specialize cfg mix co in
    let cmp = Fl.Tenancy.quality cfg mix co sp in
    pf "%-10s %-10s %5s %7s %8s %8s %12s %12s %12s\n" tag "tenant" "reqs"
      "share" "sliced" "blended" "cyc-sliced" "cyc-blended" "cyc-nopgo";
    List.iter
      (fun (c : Fl.Tenancy.comparison) ->
        let reqs =
          match List.assoc_opt c.Fl.Tenancy.cp_tenant mix.W.Mix.mx_counts with
          | Some n -> n
          | None -> 0
        in
        pf "%-10s %-10s %5d %6.1f%% %8s %8.4f %12s %12Ld %12Ld\n" "" c.Fl.Tenancy.cp_tenant
          reqs
          (100. *. c.Fl.Tenancy.cp_share)
          (if Float.is_nan c.Fl.Tenancy.cp_sliced_overlap then "-"
           else Printf.sprintf "%.4f" c.Fl.Tenancy.cp_sliced_overlap)
          c.Fl.Tenancy.cp_blended_overlap
          (if c.Fl.Tenancy.cp_sliced_cycles < 0L then "-"
           else Printf.sprintf "%Ld" c.Fl.Tenancy.cp_sliced_cycles)
          c.Fl.Tenancy.cp_blended_cycles c.Fl.Tenancy.cp_nopgo_cycles)
      cmp;
    (mix, cmp)
  in
  let skews = [ ("1:1", (1, 1)); ("3:1", (3, 1)); ("9:1", (9, 1)) ] in
  let skew_results =
    List.map (fun (tag, wts) -> (tag, wts, run ~tag ~diurnal:0 wts)) skews
  in
  (* One drifting mix: same 3:1 base weights, but a triangle-wave diurnal
     curve rotates which tenant dominates across the stream. *)
  let drift_period = 8 in
  let drift_tag = Printf.sprintf "3:1/d%d" drift_period in
  let drift_result = run ~tag:drift_tag ~diurnal:drift_period (3, 1) in
  let cores = Domain.recommended_domain_count () in
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let bpf_rows (mix : W.Mix.t) cmp =
    bpf "    \"per_tenant\": [\n";
    List.iteri
      (fun i (c : Fl.Tenancy.comparison) ->
        let reqs =
          match List.assoc_opt c.Fl.Tenancy.cp_tenant mix.W.Mix.mx_counts with
          | Some n -> n
          | None -> 0
        in
        bpf "      {\"tenant\": \"%s\", \"requests\": %d, \"share\": %.4f, "
          c.Fl.Tenancy.cp_tenant reqs c.Fl.Tenancy.cp_share;
        (if Float.is_nan c.Fl.Tenancy.cp_sliced_overlap then
           bpf "\"sliced_overlap\": null, "
         else bpf "\"sliced_overlap\": %.4f, " c.Fl.Tenancy.cp_sliced_overlap);
        bpf "\"blended_overlap\": %.4f, " c.Fl.Tenancy.cp_blended_overlap;
        (if c.Fl.Tenancy.cp_sliced_cycles < 0L then bpf "\"sliced_cycles\": null, "
         else bpf "\"sliced_cycles\": %Ld, " c.Fl.Tenancy.cp_sliced_cycles);
        bpf "\"blended_cycles\": %Ld, \"nopgo_cycles\": %Ld}%s\n"
          c.Fl.Tenancy.cp_blended_cycles c.Fl.Tenancy.cp_nopgo_cycles
          (if i = List.length cmp - 1 then "" else ","))
      cmp;
    bpf "    ]\n"
  in
  bpf "{\n  \"tenants\": [\"adretriever\", \"adfinder\"],\n";
  bpf "  \"requests\": %d,\n" requests;
  bpf "  \"skew_levels\": [\n";
  List.iteri
    (fun i (tag, (w_maj, w_min), (mix, cmp)) ->
      bpf "   {\"skew\": \"%s\", \"weights\": [%d, %d],\n" tag w_maj w_min;
      bpf_rows mix cmp;
      bpf "   }%s\n" (if i = List.length skew_results - 1 then "" else ","))
    skew_results;
  bpf "  ],\n";
  bpf "  \"drift\": {\"skew\": \"3:1\", \"diurnal_period\": %d,\n" drift_period;
  (let mix, cmp = drift_result in
   bpf_rows mix cmp);
  bpf "  },\n";
  bpf "  \"cores\": %d\n}\n" cores;
  let oc = open_out "BENCH_labels.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  pf "wrote BENCH_labels.json\n";
  (* The headline claim: on the most-skewed mix, the minority tenant's
     own slice must annotate its code at least as faithfully as the
     majority-dominated blend. *)
  let _, _, (_, most_skewed) = List.nth skew_results (List.length skew_results - 1) in
  List.iter
    (fun (c : Fl.Tenancy.comparison) ->
      if
        c.Fl.Tenancy.cp_tenant = "adfinder"
        && (not (Float.is_nan c.Fl.Tenancy.cp_sliced_overlap))
        && c.Fl.Tenancy.cp_sliced_overlap < c.Fl.Tenancy.cp_blended_overlap
      then
        failwith
          (Printf.sprintf
             "labels: minority tenant sliced overlap %.4f below blended %.4f on the \
              most-skewed mix"
             c.Fl.Tenancy.cp_sliced_overlap c.Fl.Tenancy.cp_blended_overlap))
    most_skewed

(* ------------------------------------------------------------------ *)

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let t0 = Unix.gettimeofday () in
  (match which with
  | "fig6" -> fig6 ()
  | "fig7" -> fig7 ()
  | "fig8" -> fig8 ()
  | "fig9" -> fig9 ()
  | "table1" -> table1 ()
  | "client" -> client ()
  | "drift" -> drift ()
  | "stale" -> stale ()
  | "ablation" -> ablation ()
  | "orch" -> orch ()
  | "micro" -> micro ()
  | "obs" -> obs_overhead ()
  | "format" -> format_bench ()
  | "fleet" -> fleet_bench ()
  | "corr" -> corr_bench ()
  | "health" -> health_bench ()
  | "labels" -> labels_bench ()
  | "all" ->
      fig6 ();
      fig7 ();
      fig8 ();
      fig9 ();
      table1 ();
      client ();
      drift ();
      stale ();
      ablation ();
      orch ();
      micro ();
      obs_overhead ();
      format_bench ();
      fleet_bench ();
      corr_bench ();
      health_bench ();
      labels_bench ()
  | other ->
      pf "unknown experiment %S\n" other;
      exit 1);
  pf "\n(total %.1fs)\n" (Unix.gettimeofday () -. t0)
