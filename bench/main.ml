(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§IV) on the simulated substrate, printing measured numbers
   next to the paper's reference values.

   Usage: main.exe [NAME|all], NAME one of the [experiments] table at the
   bottom. Default: all. *)

module F = Csspgo_frontend
module Ir = Csspgo_ir
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module P = Csspgo_profile
module Core = Csspgo_core
module D = Core.Driver
module W = Csspgo_workloads
module Fl = Csspgo_fleet
module O = Csspgo_orchestrator
module Obs = Csspgo_obs
module Json = Obs.Json
open Fixture

let cycles w v = Int64.to_float (outcome w v).D.o_eval.D.ev_cycles

(* Percent change of [c] over [base]. *)
let overhead ~base c = (Int64.to_float c -. Int64.to_float base) /. Int64.to_float base *. 100.

let gain_vs_autofdo w v =
  let base = cycles w D.Autofdo in
  (base -. cycles w v) /. base *. 100.0

let size_vs_autofdo w v =
  let base = float_of_int (outcome w D.Autofdo).D.o_text_size in
  (float_of_int (outcome w v).D.o_text_size -. base) /. base *. 100.0

(* Block overlap (%) of a variant's profile against instrumentation truth. *)
let overlap ?options w v =
  Core.Quality.block_overlap ~truth:(outcome w D.Instr_pgo).D.o_annotated
    (outcome ?options w v).D.o_annotated
  *. 100.

(* hhvm at a dense sample period: the biggest profiles and logs the
   substrate produces; [format] and [corr] share its profiling run. *)
let dense =
  { D.default_options with D.pmu = { Vm.Machine.default_pmu with sample_period = 499 } }

(* A correlation's canonical texts: the profile, then the flat baseline. *)
let profile_texts (p, flat) =
  P.Text_io.to_string p
  :: Option.to_list (Option.map (fun f -> P.Text_io.to_string (P.Text_io.Probe_prof f)) flat)

let float_list l = Json.List (List.map (fun x -> Json.Float x) l)
let int64 n = Json.Int (Int64.to_int n)

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
      let plain = (profile ~shape:Fl.Build.Lines w).cycles in
      let probed = (profile ~shape:Fl.Build.Ctx w).cycles in
      pf "%-12s %14Ld %14Ld %+9.2f%%\n" w.D.w_name plain probed (overhead ~base:plain probed))
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
  let ov = overlap w in
  (* Profiling overhead: training-run cycles vs the plain sampling run. *)
  let ovh = overhead ~base:(profile ~shape:Fl.Build.Lines w).cycles in
  let probed = (profile ~shape:Fl.Build.Ctx w).cycles in
  let instr_cycles = (outcome w D.Instr_pgo).D.o_profiling_cycles in
  pf "measured:            AutoFDO   CSSPGO   Instr PGO\n";
  pf "  block overlap       %5.1f%%   %5.1f%%     %5.1f%%\n" (ov D.Autofdo)
    (ov D.Csspgo_full) (ov D.Instr_pgo);
  pf "  profiling overhead  %5.1f%%   %5.2f%%    %5.1f%%\n" 0.0 (ovh probed)
    (ovh instr_cycles);
  pf "\nblock overlap, all workloads (AutoFDO / CSSPGO):\n";
  List.iter
    (fun w ->
      pf "  %-12s %5.1f%% / %5.1f%%\n" w.D.w_name (overlap w D.Autofdo)
        (overlap w D.Csspgo_full))
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
  let per_variant f =
    Json.Obj (List.mapi (fun vi v -> (D.variant_name v, float_list (f vi))) variants)
  in
  let cell sel drow vi = List.map (fun (_, cells) -> sel (List.nth cells vi)) drow in
  write_bench "BENCH_stale.json"
    (Json.Obj
       [
         ("distances", Json.List (List.map (fun d -> Json.Int d) distances));
         ( "workloads",
           Json.List
             (List.map
                (fun ((w : D.workload), seed, drow) ->
                  Json.Obj
                    [
                      ("name", Json.String w.D.w_name);
                      ("drift_seed", int64 seed);
                      ("overlap", per_variant (cell fst drow));
                      ("count_recovery", per_variant (cell snd drow));
                    ])
                rows) );
         ( "aggregate_overlap",
           per_variant (fun vi -> List.mapi (fun di _ -> mean di vi) distances) );
         ("cores", Json.Int cores);
       ]);
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
  let no_inline =
    { D.default_options with
      D.opt_profiling =
        { Opt.Config.o2_nopgo with Opt.Config.inline_mode = Opt.Config.Inline_none } }
  in
  (* The untrimmed trie and Algorithm 1's stats of one recorded log. *)
  let contexts ~missing_frames w =
    let p = profile ~options:no_inline ~shape:Fl.Build.Ctx w in
    let r =
      Core.Correlate.run ~jobs:1 ~missing_frames ~trim:0L Core.Correlate.Ctx
        (Core.Correlate.target p.build.Fl.Build.vb_symbols p.build.Fl.Build.vb_bin)
        (Core.Correlate.Log p.log)
    in
    match r.Core.Correlate.profile with
    | P.Text_io.Ctx_prof trie -> (trie, r.Core.Correlate.stats)
    | _ -> assert false
  in
  let w = W.Suite.hhvm in
  (* 1. cold-context trimming: profile size with and without *)
  let trie, _ = contexts ~missing_frames:false W.Suite.haas in
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
  let _, st_with = contexts ~missing_frames:true W.Suite.adfinder in
  let _, st_without = contexts ~missing_frames:false W.Suite.adfinder in
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
  let drop options =
    match (outcome ~options W.Suite.haas D.Csspgo_full).D.o_recon_stats with
    | Some s ->
        float_of_int s.Core.Ctx_reconstruct.st_dropped_misaligned
        /. float_of_int (max s.Core.Ctx_reconstruct.st_samples 1)
        *. 100.
    | None -> 0.0
  in
  let skid =
    { D.default_options with
      D.pmu = { Vm.Machine.default_pmu with sample_period = 1009; pebs = false; skid_prob = 0.5 } }
  in
  pf "PEBS synchronization (haas): dropped samples %.1f%% with PEBS,\n"
    (drop D.default_options);
  pf "  %.1f%% without (skid detection; paper: PEBS eliminates the skid)\n\n" (drop skid);
  (* 4. layout algorithm: full Ext-TSP greedy (default) vs hot-path DFS *)
  let ext_tsp = (outcome w D.Csspgo_full).D.o_eval.D.ev_cycles in
  let dfs =
    (outcome
       ~options:
         { D.default_options with
           D.emit_opts = { Cg.Emit.layout = `Hot_path } }
       w D.Csspgo_full)
      .D.o_eval.D.ev_cycles
  in
  pf "block layout (hhvm, full CSSPGO): Ext-TSP greedy (default) %Ld cycles,\n" ext_tsp;
  pf "  hot-path DFS %Ld cycles (Ext-TSP %+.2f%% better)\n\n" dfs
    ((Int64.to_float dfs -. Int64.to_float ext_tsp) /. Int64.to_float dfs *. 100.);
  (* 5. the "flexible framework" knob (§III.A): probes as strong barriers.
     Sampling costs no simulated cycles, so the profiling runs' training
     cycles are the builds' run time. *)
  let overhead_of config =
    let options = { D.default_options with D.opt_profiling = config } in
    let cycles shape = (profile ~options ~shape w).cycles in
    overhead ~base:(cycles Fl.Build.Lines) (cycles Fl.Build.Ctx)
  in
  pf "probe strength (hhvm profiling build, the §III.A flexibility knob):\n";
  pf "  fine-tuned (default) probes: %+.2f%% run-time overhead\n"
    (overhead_of Opt.Config.o2_nopgo);
  pf "  strong-barrier probes:       %+.2f%% run-time overhead\n"
    (overhead_of { Opt.Config.o2_nopgo with Opt.Config.probes_strong = true });
  pf "  (stronger barriers preserve more control flow for correlation at\n";
  pf "   the price of run-time cost — the paper's overhead/accuracy dial)\n\n";
  (* 6. LBR depth 16 vs 32 *)
  let recon_with depth =
    overlap
      ~options:
        { D.default_options with
          D.pmu = { Vm.Machine.default_pmu with sample_period = 1009; lbr_depth = depth } }
      W.Suite.adretriever D.Csspgo_probe_only
  in
  pf "LBR depth (adretriever, probe-only overlap): 16-deep %.1f%%, 32-deep %.1f%%\n\n"
    (recon_with 16) (recon_with 32);
  (* 7. pre-inliner on/off *)
  let o_nopre = outcome ~options:{ D.default_options with D.preinline = None } w D.Csspgo_full in
  pf "pre-inliner (hhvm): full %+.2f%% vs no-pre-inliner %+.2f%% (over AutoFDO)\n"
    (gain_vs_autofdo w D.Csspgo_full)
    ((cycles w D.Autofdo -. Int64.to_float o_nopre.D.o_eval.D.ev_cycles)
    /. cycles w D.Autofdo *. 100.)

(* ------------------------------------------------------------------ *)
(* Orchestrator: parallel plan scheduling + content-addressed cache.   *)

let orch () =
  sep "Orchestrator — plan scheduling and artifact cache (lib/orchestrator)";
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
(* Binary profile format: decode vs text parse on an hhvm-scale profile, *)
(* plus the profile-delta incremental rebuild the fingerprints enable.   *)

let format_bench () =
  sep "Format — binary profile codec vs text, and delta-driven rebuilds";
  (* One context trie and one flat probe profile of the dense hhvm run. *)
  let p = profile ~options:dense ~shape:Fl.Build.Ctx W.Suite.hhvm in
  let texts =
    List.combine [ "ctx"; "probes" ]
      (profile_texts (Fl.Build.correlate ~options:dense ~shape:Fl.Build.Ctx p.build p.log))
  in
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
        ( (tag, speedup),
          Json.Obj
            [
              ("tag", Json.String tag);
              ("text_bytes", Json.Int (String.length text));
              ("binary_bytes", Json.Int (String.length b));
              ("parse_ns", Json.Float ns_parse);
              ("decode_ns", Json.Float ns_decode);
              ("encode_ns", Json.Float ns_encode);
              ("decode_speedup", Json.Float speedup);
            ] ))
      texts
  in
  (* Sample-log codec on the same run. *)
  let log = p.log in
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
  (* One plan run, timed whole and per stage through the hooks' span. *)
  let staged (hooks : D.Plan.hooks) plan =
    let stages = ref [] in
    let span ~name f =
      let r, t = time (fun () -> hooks.D.Plan.span ~name f) in
      stages := (name, t) :: !stages;
      r
    in
    let _, t = time (fun () -> D.Plan.run ~hooks:{ hooks with D.Plan.span } plan) in
    (t, List.rev !stages)
  in
  let split stages =
    String.concat "  " (List.map (fun (name, t) -> Printf.sprintf "%s %.3f" name t) stages)
  in
  let t_cold, cold_stages = staged (O.Orchestrate.hooks cache) plan in
  let _, t_warm = time (fun () -> D.Plan.run ~hooks:(O.Orchestrate.hooks cache) plan) in
  let _, t_a = time (fun () -> D.Plan.run ~hooks:(O.Orchestrate.hooks cache) (stale 3L)) in
  let obs = Obs.Metrics.create () in
  let t_delta, delta_stages = staged (O.Orchestrate.hooks ~obs cache) (stale 4L) in
  let plan_count name =
    Option.value ~default:0 (Obs.Metrics.find_counter (Obs.Metrics.snapshot obs) name)
  in
  let rebuild_s stages = Option.value ~default:0.0 (List.assoc_opt "rebuild" stages) in
  let n_rec = plan_count "plan.rebuild.funcs-recompiled" in
  let n_reu = plan_count "plan.rebuild.funcs-reused" in
  pf "incremental rebuild (clangish, full CSSPGO, in-memory cache):\n";
  pf "  cold build                 %7.3fs\n" t_cold;
  pf "    stages (s): %s\n" (split cold_stages);
  pf "  warm rerun (binary hit)    %7.3fs   (%.1fx faster)\n" t_warm (t_cold /. t_warm);
  pf "  drifted rebuild (v2)       %7.3fs\n" t_a;
  pf "  delta rebuild (v2 -> v2')  %7.3fs   (%d recompiled, %d reused)\n" t_delta
    n_rec n_reu;
  pf "    stages (s): %s\n" (split delta_stages);
  write_bench "BENCH_format.json"
    (Json.Obj
       [
         ("workload", Json.String "hhvm");
         ("sample_period", Json.Int 499);
         ("profiles", Json.List (List.map snd shapes));
         ( "sample_log",
           Json.Obj
             [
               ("n_samples", Json.Int (Vm.Sample_log.n_samples log));
               ("text_bytes", Json.Int (String.length log_text));
               ("binary_bytes", Json.Int (String.length log_bin));
               ("parse_ns", Json.Float ns_log_parse);
               ("decode_ns", Json.Float ns_log_decode);
               ("decode_speedup", Json.Float (ns_log_parse /. ns_log_decode));
             ] );
         ( "incremental",
           Json.Obj
             [
               ("workload", Json.String "clangish");
               ("cold_s", Json.Float t_cold);
               ("warm_s", Json.Float t_warm);
               ("drifted_s", Json.Float t_a);
               ("delta_s", Json.Float t_delta);
               ("cold_rebuild_s", Json.Float (rebuild_s cold_stages));
               ("delta_rebuild_s", Json.Float (rebuild_s delta_stages));
               ("delta_recompiled", Json.Int n_rec);
               ("delta_reused", Json.Int n_reu);
             ] );
         ("cores", Json.Int cores);
       ]);
  List.iter
    (fun ((tag, sp), _) ->
      if sp < 3.0 then
        failwith
          (Printf.sprintf "format: %s binary decode speedup %.2fx below 3x target" tag sp))
    shapes

(* ------------------------------------------------------------------ *)
(* Fleet — continuous profiling: sharded collection, duty cycling,      *)
(* version skew, and the release train.                                 *)

let fleet_bench () =
  sep "Fleet — continuous profiling (sharded collectors, cross-version merge)";
  let w = W.Suite.adfinder in
  let version ?(id = 0) ?(n = 1) src =
    { Fl.Sim.v_id = id; v_source = src; v_weight = 1L; v_instances = n }
  in
  (* One rebuild measurement per distinct source: inject the merged
     profile through the plan pipeline, compare against no-PGO and the
     instrumentation truth of the same source. *)
  let measure src (out : Fl.Sim.outcome) =
    let gen_w = { w with D.w_source = src } in
    let nopgo = (outcome gen_w D.Nopgo).D.o_eval in
    let truth = (outcome gen_w D.Instr_pgo).D.o_annotated in
    let o =
      D.Plan.run
        (D.Plan.make_with_profile ~profile:out.Fl.Sim.fs_profile
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
  let size_cfg = { Fl.Sim.default with Fl.Sim.f_request_copies = 64 } in
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
  let skew_cfg = { Fl.Sim.default with Fl.Sim.f_request_copies = 16 } in
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
      t_fleet = { Fl.Sim.default with Fl.Sim.f_request_copies = 8 };
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
  let num_opt f = function Some x -> Json.Float (f x) | None -> Json.Null in
  let rows f l = Json.List (List.map (fun r -> Json.Obj (f r)) l) in
  write_bench "BENCH_fleet.json"
    (Json.Obj
       [
         ("workload", Json.String w.D.w_name);
         ( "fleet_sizes",
           rows
             (fun (n, (out : Fl.Sim.outcome), speedup, overlap, identical) ->
               [
                 ("instances", Json.Int n);
                 ("samples", Json.Int out.Fl.Sim.fs_samples);
                 ("bytes", Json.Int out.Fl.Sim.fs_bytes);
                 ("batches", Json.Int out.Fl.Sim.fs_batches);
                 ("speedup", Json.Float speedup);
                 ("overlap", Json.Float overlap);
                 ("identical_to_single", Json.Bool identical);
               ])
             size_rows );
         ( "duty_sweep",
           rows
             (fun (duty, (out : Fl.Sim.outcome), speedup, overlap) ->
               [
                 ("duty", Json.Float duty);
                 ("sampled", Json.Int out.Fl.Sim.fs_sampled);
                 ("requests", Json.Int out.Fl.Sim.fs_requests);
                 ("samples", Json.Int out.Fl.Sim.fs_samples);
                 ("bytes", Json.Int out.Fl.Sim.fs_bytes);
                 ("speedup", Json.Float speedup);
                 ("overlap", Json.Float overlap);
               ])
             duty_rows );
         ( "skew_sweep",
           rows
             (fun (skew, (out : Fl.Sim.outcome), recovery, speedup, overlap) ->
               [
                 ("skew", Json.Int skew);
                 ("versions", Json.Int (skew + 1));
                 ("samples", Json.Int out.Fl.Sim.fs_samples);
                 ("recovery", Json.Float recovery);
                 ("speedup", Json.Float speedup);
                 ("overlap", Json.Float overlap);
               ])
             skew_rows );
         ( "train",
           rows
             (fun (g : Fl.Train.generation) ->
               [
                 ("id", Json.Int g.Fl.Train.g_id);
                 ("speedup", Json.Float g.Fl.Train.g_speedup);
                 ("overlap", num_opt Fun.id g.Fl.Train.g_overlap);
                 ( "carry_recovery",
                   num_opt Core.Stale_match.recovery_rate g.Fl.Train.g_carry );
               ])
             gens );
         ("cores", Json.Int cores);
       ])

(* ------------------------------------------------------------------ *)
(* Corr — sharded parallel correlation over chunk-framed sample logs:   *)
(* CSLG v2 decode vs text parse, then serial-vs-sharded correlation     *)
(* throughput at -j 1/2/4 with a byte-identity check at every point.    *)

let corr_bench () =
  sep "Corr — sharded parallel correlation over chunk-framed sample logs";
  let w = W.Suite.hhvm in
  let { build = b; log; _ } = profile ~options:dense ~shape:Fl.Build.Ctx w in
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
  let chunks =
    match Vm.Sample_log.decode_chunks blob with
    | Ok parts -> parts
    | Error _ -> assert false
  in
  pf "sample log (hhvm, period %d): %d samples, %d chunks\n" 499 n (List.length chunks);
  pf "  text parse %10.1f us | v2 decode %10.1f us  (%.2fx, target >= 3x)\n"
    (ns_parse /. 1e3) (ns_decode /. 1e3) decode_speedup;
  (* Sharded correlation. The shard target scales with the log so the
     shard count, not the production 4096-sample default, bounds the
     available parallelism on this substrate-sized log. *)
  let shard_target = max 256 (n / 16) in
  let n_shards =
    List.length (Core.Correlate.plan ~target:shard_target chunks)
  in
  pf "correlation (ctx shape): %d shards (target %d samples/shard)\n" n_shards
    shard_target;
  let text r = String.concat "" (profile_texts r) in
  (* Best-of-three time of a correlation, with its text. *)
  let timed f =
    let out = ref "" in
    let t = time_best (fun () -> out := text (f ())) in
    (!out, t)
  in
  let serial_out, t_serial =
    timed (fun () -> Fl.Build.correlate ~options:dense ~shape:Fl.Build.Ctx b log)
  in
  pf "  serial       %8.3fs   %9.0f samples/s\n" t_serial
    (float_of_int n /. t_serial);
  let runs =
    List.map
      (fun jobs ->
        let out, t =
          timed (fun () ->
              Fl.Build.correlate_chunks ~shard_target ~jobs ~options:dense
                ~shape:Fl.Build.Ctx b chunks)
        in
        if not (String.equal out serial_out) then
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
      let { build = b; log; _ } = profile ~options:dense ~shape w in
      let serial = text (Fl.Build.correlate ~options:dense ~shape b log) in
      let par =
        text
          (Fl.Build.correlate_chunks ~shard_target ~jobs:4 ~options:dense ~shape
             b (Vm.Sample_log.split log))
      in
      if not (String.equal serial par) then
        failwith ("corr: " ^ Fl.Build.shape_name shape ^ " -j 4 differs"))
    [ Fl.Build.Lines; Fl.Build.Probes ];
  let speedup4 = t_serial /. List.assoc 4 runs in
  write_bench "BENCH_corr.json"
    (Json.Obj
       [
         ("workload", Json.String "hhvm");
         ("sample_period", Json.Int 499);
         ("n_samples", Json.Int n);
         ("n_shards", Json.Int n_shards);
         ("cores", Json.Int cores);
         ( "decode",
           Json.Obj
             [
               ("parse_ns", Json.Float ns_parse);
               ("decode_ns", Json.Float ns_decode);
               ("speedup", Json.Float decode_speedup);
             ] );
         ( "correlate",
           Json.Obj
             [
               ("serial_s", Json.Float t_serial);
               ("serial_samples_per_s", Json.Float (float_of_int n /. t_serial));
               ( "jobs",
                 Json.List
                   (List.map
                      (fun (jobs, t) ->
                        Json.Obj
                          [
                            ("jobs", Json.Int jobs);
                            ("s", Json.Float t);
                            ("samples_per_s", Json.Float (float_of_int n /. t));
                            ("speedup", Json.Float (t_serial /. t));
                          ])
                      runs) );
             ] );
       ]);
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
  (* Drift alarm: a 4-generation train drifting 2 edits per release, with a
     4-edit spike injected at the transition into generation 2. The EWMA
     detector must flag the spike window — and only the spike window — as a
     crit regression. *)
  let train_cfg =
    {
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
  ignore (Fl.Train.run ~health:tracker train_cfg w);
  let rep = Obs.Health.report tracker in
  pf "drift alarm (4 generations, spike 4 edits into gen 2):\n";
  print_string (Obs.Health.report_to_text rep);
  let crit_alerts =
    List.filter
      (fun (a : Obs.Health.alert) -> a.Obs.Health.al_level = Obs.Health.Crit)
      rep.Obs.Health.hp_alerts
  in
  let n_windows = List.length rep.Obs.Health.hp_windows in
  write_bench "BENCH_health.json"
    (Json.Obj
       ([
          ("workload", Json.String "adfinder");
          ("window_ms", Json.Float (t_window *. 1e3));
          ("close_us", Json.Float (ns_close /. 1e3));
          ("overhead_pct", Json.Float overhead_pct);
          ("windows", Json.Int n_windows);
          ("crit_alerts", Json.Int (List.length crit_alerts));
        ]
       @ (match crit_alerts with
         | [ a ] ->
             [
               ("alert_window", Json.Int a.Obs.Health.al_window);
               ("alert_indicator", Json.String a.Obs.Health.al_indicator);
             ]
         | _ -> [])
       @ [ ("cores", Json.Int cores) ]));
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
    let rows =
      List.map
        (fun (c : Fl.Tenancy.comparison) ->
          let reqs =
            Option.value ~default:0 (List.assoc_opt c.Fl.Tenancy.cp_tenant mix.W.Mix.mx_counts)
          in
          let sliced_cycles = c.Fl.Tenancy.cp_sliced_cycles in
          pf "%-10s %-10s %5d %6.1f%% %8s %8.4f %12s %12Ld %12Ld\n" "" c.Fl.Tenancy.cp_tenant
            reqs
            (100. *. c.Fl.Tenancy.cp_share)
            (if Float.is_nan c.Fl.Tenancy.cp_sliced_overlap then "-"
             else Printf.sprintf "%.4f" c.Fl.Tenancy.cp_sliced_overlap)
            c.Fl.Tenancy.cp_blended_overlap
            (if sliced_cycles < 0L then "-" else Printf.sprintf "%Ld" sliced_cycles)
            c.Fl.Tenancy.cp_blended_cycles c.Fl.Tenancy.cp_nopgo_cycles;
          (* A tenant with no slice has a NaN overlap, which prints as null. *)
          Json.Obj
            [
              ("tenant", Json.String c.Fl.Tenancy.cp_tenant);
              ("requests", Json.Int reqs);
              ("share", Json.Float c.Fl.Tenancy.cp_share);
              ("sliced_overlap", Json.Float c.Fl.Tenancy.cp_sliced_overlap);
              ("blended_overlap", Json.Float c.Fl.Tenancy.cp_blended_overlap);
              ("sliced_cycles", if sliced_cycles < 0L then Json.Null else int64 sliced_cycles);
              ("blended_cycles", int64 c.Fl.Tenancy.cp_blended_cycles);
              ("nopgo_cycles", int64 c.Fl.Tenancy.cp_nopgo_cycles);
            ])
        cmp
    in
    (cmp, ("per_tenant", Json.List rows))
  in
  let skews = [ ("1:1", (1, 1)); ("3:1", (3, 1)); ("9:1", (9, 1)) ] in
  let skew_results =
    List.map (fun (tag, wts) -> (tag, wts, run ~tag ~diurnal:0 wts)) skews
  in
  (* One drifting mix: same 3:1 base weights, but a triangle-wave diurnal
     curve rotates which tenant dominates across the stream. *)
  let drift_period = 8 in
  let drift_tag = Printf.sprintf "3:1/d%d" drift_period in
  let _, drift_rows = run ~tag:drift_tag ~diurnal:drift_period (3, 1) in
  write_bench "BENCH_labels.json"
    (Json.Obj
       [
         ("tenants", Json.List [ Json.String "adretriever"; Json.String "adfinder" ]);
         ("requests", Json.Int requests);
         ( "skew_levels",
           Json.List
             (List.map
                (fun (tag, (w_maj, w_min), (_, rows)) ->
                  Json.Obj
                    [
                      ("skew", Json.String tag);
                      ("weights", Json.List [ Json.Int w_maj; Json.Int w_min ]);
                      rows;
                    ])
                skew_results) );
         ( "drift",
           Json.Obj
             [
               ("skew", Json.String "3:1");
               ("diurnal_period", Json.Int drift_period);
               drift_rows;
             ] );
         ("cores", Json.Int cores);
       ]);
  (* The headline claim: on the most-skewed mix, the minority tenant's
     own slice must annotate its code at least as faithfully as the
     majority-dominated blend. *)
  let _, _, (most_skewed, _) = List.nth skew_results (List.length skew_results - 1) in
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

let experiments =
  [
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("table1", table1);
    ("client", client);
    ("drift", drift);
    ("stale", stale);
    ("ablation", ablation);
    ("orch", orch);
    ("format", format_bench);
    ("fleet", fleet_bench);
    ("corr", corr_bench);
    ("health", health_bench);
    ("labels", labels_bench);
  ]

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let run =
    match (which, List.assoc_opt which experiments) with
    | _, Some run -> run
    | "all", None -> fun () -> List.iter (fun (_, run) -> run ()) experiments
    | _, None ->
        Printf.eprintf "unknown experiment %S; valid: %s all\n" which
          (String.concat " " (List.map fst experiments));
        exit 1
  in
  let t0 = Unix.gettimeofday () in
  run ();
  pf "\n(total %.1fs)\n" (Unix.gettimeofday () -. t0)
