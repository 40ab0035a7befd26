(* The paper's contribution: probes, checksums/drift, correlation,
   Algorithm 1 reconstruction, missing frames, pre-inliner, annotation,
   quality metric, driver end-to-end. *)
module F = Csspgo_frontend
module Ir = Csspgo_ir
module I = Ir.Instr
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Mach = Cg.Mach
module Vm = Csspgo_vm
module P = Csspgo_profile
module PP = P.Probe_profile
module CP = P.Ctx_profile
module Core = Csspgo_core
module D = Core.Driver
module W = Csspgo_workloads
open Csspgo_support

let probe_count_in (p : Ir.Program.t) =
  let n = ref 0 in
  Ir.Program.iter_funcs
    (fun f ->
      Ir.Func.iter_blocks
        (fun b -> Vec.iter (fun i -> if I.is_probe i then incr n) b.Ir.Block.instrs)
        f)
    p;
  !n

let test_probe_insertion () =
  let p = F.Lower.compile W.Suite.vecop_example in
  Core.Pseudo_probe.insert p;
  Ir.Verify.check_exn p;
  Alcotest.(check bool) "probes present" true (probe_count_in p > 0);
  (* Every reachable block has a block probe, entry probe is #1. *)
  Ir.Program.iter_funcs
    (fun f ->
      Alcotest.(check int)
        (f.Ir.Func.name ^ " entry probe is #1")
        1
        (Ir.Block.probe_id (Ir.Func.entry_block f));
      Ir.Func.iter_blocks
        (fun b ->
          if Ir.Block.probe_id b = 0 then
            Alcotest.failf "%s/bb%d lacks a block probe" f.Ir.Func.name b.Ir.Block.id)
        f;
      (* Every call has a callsite probe. *)
      Ir.Func.iter_blocks
        (fun b ->
          Vec.iter
            (fun (i : I.t) ->
              match i.I.op with
              | I.Call { c_probe; _ } when c_probe = 0 -> Alcotest.fail "call without probe"
              | _ -> ())
            b.Ir.Block.instrs)
        f)
    p;
  Alcotest.(check bool) "double insertion rejected" true
    (match Core.Pseudo_probe.insert p with
    | exception Invalid_argument _ -> true
    | _ -> false)

let drift_base = "fn hot(a) {\n  let x = a * 3;\n  return x + 1;\n}\nfn main(a) { return hot(a); }"

let test_checksum_drift () =
  let checksum_of src =
    let p = F.Lower.compile src in
    Core.Pseudo_probe.insert p;
    (Ir.Program.func p "hot").Ir.Func.checksum
  in
  let base = checksum_of drift_base in
  (* Comment-only edits keep the checksum (the §III.A source-drift story). *)
  let with_comment =
    "fn hot(a) {\n  // a helpful comment\n  let x = a * 3;\n  return x + 1;\n}\nfn main(a) { return hot(a); }"
  in
  Alcotest.(check int64) "comment-only edit keeps checksum" base (checksum_of with_comment);
  (* Straight-line edits keep the CFG, and thus the checksum. *)
  let with_stmt =
    "fn hot(a) {\n  let y = a + 0;\n  let x = a * 3;\n  return x + y - a;\n}\nfn main(a) { return hot(a); }"
  in
  Alcotest.(check int64) "straight-line edit keeps checksum" base (checksum_of with_stmt);
  (* A control-flow change must invalidate it. *)
  let with_if =
    "fn hot(a) {\n  let x = a * 3;\n  if (a > 0) { x = x + 1; }\n  return x + 1;\n}\nfn main(a) { return hot(a); }"
  in
  Alcotest.(check bool) "CFG change breaks checksum" true
    (not (Int64.equal base (checksum_of with_if)))

let test_stale_profile_rejected () =
  (* Profile collected on one CFG must be rejected on a different CFG. *)
  let mk src =
    let p = F.Lower.compile src in
    Core.Pseudo_probe.insert p;
    p
  in
  let old_p = mk drift_base in
  let profile = PP.create () in
  let guid = (Ir.Program.func old_p "hot").Ir.Func.guid in
  let fe = PP.get_or_add profile guid ~name:"hot" in
  fe.PP.fe_checksum <- (Ir.Program.func old_p "hot").Ir.Func.checksum;
  PP.add_probe fe 1 100L;
  let new_p =
    mk
      "fn hot(a) {\n  let x = a * 3;\n  if (a > 0) { x = x + 1; }\n  return x + 1;\n}\nfn main(a) { return hot(a); }"
  in
  let stales = Core.Annotate.probes profile new_p in
  Alcotest.(check int) "one stale function" 1 (List.length stales);
  Alcotest.(check string) "it is hot" "hot" (List.hd stales).Core.Annotate.sf_name;
  Alcotest.(check bool) "hot left unannotated" false
    (Ir.Program.func new_p "hot").Ir.Func.annotated

(* A probed build: the reference program and the binary. *)
let build_probed ?(config = Opt.Config.o2_nopgo) src =
  let p = F.Lower.compile src in
  Core.Pseudo_probe.insert p;
  let refp = Ir.Program.copy p in
  Opt.Pass.optimize ~config p;
  (refp, Cg.Emit.emit ~options:Cg.Emit.default_options p)

let no_inline = { Opt.Config.o2_nopgo with inline_mode = Opt.Config.Inline_none }
let pmu_101 = { Vm.Machine.default_pmu with sample_period = 101 }

(* One sampled run of [main] through the correlation kernel's tee sink:
   the range aggregate, the missing-frame table when [missing], the log. *)
let record ?(pmu = pmu_101) ~missing bin args =
  let sink, recorded = Core.Correlate.recorder ~missing bin in
  ignore (Vm.Machine.run ~pmu:(Some pmu) ~sink bin ~entry:"main" ~args);
  recorded ()

(* A recorded run's untrimmed profile of [shape], keyed against [refp]. *)
let kernel ~missing_frames shape refp bin (agg, missing, log) =
  Core.Correlate.run ~jobs:1 ~missing_frames ~trim:0L ~recorded:(agg, missing) shape
    (Core.Correlate.target (Core.Correlate.symbols refp) bin)
    (Core.Correlate.Log log)

let correlate ?pmu ?(missing_frames = false) shape refp bin args =
  kernel ~missing_frames shape refp bin (record ?pmu ~missing:missing_frames bin args)

let probes_of (r : Core.Correlate.result) =
  match r.Core.Correlate.profile with P.Text_io.Probe_prof p -> p | _ -> assert false

let trie_of (r : Core.Correlate.result) =
  match r.Core.Correlate.profile with P.Text_io.Ctx_prof t -> t | _ -> assert false

let test_probe_correlation_sums_copies () =
  (* A loop that static unrolling duplicates: probe counts must reflect the
     true frequency (copies summed), the §III.A code-duplication claim. *)
  let src =
    "fn main(n) { let s = 0; let i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }"
  in
  let refp, bin = build_probed src in
  (* the binary must contain duplicated probes (same id twice) *)
  let ids = Hashtbl.create 8 in
  let dup = ref false in
  Array.iter
    (fun (pr : Mach.probe_rec) ->
      let key = (pr.Mach.pr_func, pr.Mach.pr_id) in
      if Hashtbl.mem ids key then dup := true else Hashtbl.replace ids key ())
    bin.Mach.probes;
  Alcotest.(check bool) "unroll duplicated probes" true !dup;
  let prof = probes_of (correlate Core.Correlate.Probes refp bin [ 5000L ]) in
  let main_fe = Option.get (PP.get prof (Ir.Guid.of_name "main")) in
  (* Loop-body probe count must be close to entry * n-scale: at least find a
     probe whose count dwarfs probe #1's. *)
  let p1 = PP.probe_count main_fe 1 in
  let hottest = Hashtbl.fold (fun _ c acc -> Int64.max c acc) main_fe.PP.fe_probes 0L in
  Alcotest.(check bool) "loop probe much hotter than entry" true
    (Int64.to_float hottest > 50. *. Int64.to_float (Int64.max p1 1L))

let cs_src = {|
fn leaf_a(x) { let s = 0; let i = 0; while (i < 40) { s = s + x * i; i = i + 1; } return s; }
fn leaf_b(x) { let s = 0; let i = 0; while (i < 40) { s = s + x + i; i = i + 1; } return s; }
fn dispatch(x, k) {
  if (k == 0) { return leaf_a(x); }
  return leaf_b(x);
}
fn caller_a(x) { return dispatch(x, 0); }
fn caller_b(x) { return dispatch(x, 1); }
fn main(n) {
  let t = 0;
  let r = 0;
  while (t < n) {
    r = r + caller_a(t) + caller_b(t);
    t = t + 1;
  }
  return r;
}
|}

let reconstruct_cs () =
  (* keep call structure: no inlining *)
  let refp, bin = build_probed ~config:no_inline cs_src in
  (* dispatch makes its calls in tail position, so the TCE missing-frame
     inferrer is required for complete contexts. *)
  let r = correlate ~missing_frames:true Core.Correlate.Ctx refp bin [ 120L ] in
  (trie_of r, r.Core.Correlate.stats)

let test_ctx_reconstruction_separates_contexts () =
  (* The Fig. 3 story: dispatch under caller_a only reaches leaf_a, and
     under caller_b only leaf_b. Algorithm 1 must recover that. *)
  let trie, stats = reconstruct_cs () in
  Alcotest.(check int) "no misaligned samples with PEBS" 0
    stats.Core.Ctx_reconstruct.st_dropped_misaligned;
  let g = Ir.Guid.of_name in
  let ctx_has_samples leaf pred =
    match CP.find_node trie ~leaf:(g leaf) pred with
    | Some n -> Int64.compare n.CP.n_prof.PP.fe_total 0L > 0
    | None -> false
  in
  let under caller ctx = List.exists (fun (f, _) -> Ir.Guid.equal f (g caller)) ctx in
  Alcotest.(check bool) "leaf_a under caller_a" true
    (ctx_has_samples "leaf_a" (under "caller_a"));
  Alcotest.(check bool) "leaf_b under caller_b" true
    (ctx_has_samples "leaf_b" (under "caller_b"));
  Alcotest.(check bool) "leaf_a never under caller_b" false
    (ctx_has_samples "leaf_a" (under "caller_b"));
  Alcotest.(check bool) "leaf_b never under caller_a" false
    (ctx_has_samples "leaf_b" (under "caller_a"))

let test_ctx_totals_match_flat () =
  (* Merging every context into base must agree with flat probe correlation
     on per-function totals (within the extra newest-run attribution). *)
  let refp, bin = build_probed cs_src in
  let r = correlate Core.Correlate.Ctx refp bin [ 120L ] in
  let flat = Lazy.force (Option.get r.Core.Correlate.flat) and trie = trie_of r in
  ignore (CP.trim_cold trie ~threshold:Int64.max_int);
  let flat_total = PP.total_samples flat in
  let trie_total = CP.total_samples trie in
  let ratio = Int64.to_float trie_total /. Int64.to_float (Int64.max flat_total 1L) in
  if ratio < 0.95 || ratio > 1.15 then
    Alcotest.failf "context totals diverge from flat: %.3f (flat=%Ld trie=%Ld)" ratio
      flat_total trie_total

let tail_call_src = {|
fn worker(x) { let s = 0; let i = 0; while (i < 60) { s = s + x * i; i = i + 1; } return s; }
fn springboard(x) { return worker(x + 1); }
fn main(n) {
  let t = 0;
  let k = 0;
  while (k < n) {
    t = t + springboard(k);
    k = k + 1;
  }
  return t;
}
|}

let test_missing_frame_inference () =
  (* springboard tail-calls worker, so stack samples in worker skip it; the
     tail-call graph must recover the gap (>2/3 recovered in the paper). *)
  let refp, bin = build_probed ~config:no_inline tail_call_src in
  (* confirm a tail call was emitted *)
  let has_tail =
    Array.exists
      (fun (i : Mach.inst) -> match i.Mach.i_op with Mach.MTail_call _ -> true | _ -> false)
      bin.Mach.insts
  in
  Alcotest.(check bool) "TCE fired" true has_tail;
  let ((_, missing, _) as recorded) = record ~missing:true bin [ 100L ] in
  let mf = Option.get missing in
  Alcotest.(check bool) "tail edges found" true (Core.Missing_frame.n_edges mf > 0);
  let g = Ir.Guid.of_name in
  (match Core.Missing_frame.resolve mf ~from_func:(g "springboard") ~to_func:(g "worker") with
  | Some [ _addr ] -> ()
  | Some [] -> Alcotest.fail "expected a one-hop chain"
  | Some _ -> Alcotest.fail "chain too long"
  | None -> Alcotest.fail "unique path not found");
  (* Reconstruction with the inferrer should resolve gaps. *)
  let r = kernel ~missing_frames:true Core.Correlate.Ctx refp bin recorded in
  let trie = trie_of r and stats = r.Core.Correlate.stats in
  Alcotest.(check bool) "gaps resolved" true (stats.Core.Ctx_reconstruct.st_gaps_resolved > 0);
  (* worker's context should include springboard *)
  let found =
    CP.find_node trie ~leaf:(g "worker") (fun ctx ->
        List.exists (fun (f, _) -> Ir.Guid.equal f (g "springboard")) ctx)
  in
  Alcotest.(check bool) "springboard frame recovered" true (found <> None)

let test_size_extract () =
  let p = F.Lower.compile "fn tiny(x) { return x + 1; }\nfn main(a) { return tiny(a) * 2; }" in
  Core.Pseudo_probe.insert p;
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let sizes = Core.Size_extract.compute bin in
  (* tiny got inlined into main: its context size exists; main has a base size *)
  let g = Ir.Guid.of_name in
  Alcotest.(check bool) "main base size" true
    (match Core.Size_extract.base_size sizes (g "main") with Some s -> s > 0 | None -> false);
  Alcotest.(check bool) "tiny has some context size" true
    (Core.Size_extract.avg_inline_size sizes (g "tiny") <> None)

let test_preinliner_marks_hot_chain () =
  let w = W.Suite.adretriever in
  let pbin, log =
    (* probed profiling build sampled over the training inputs *)
    let options = D.default_options in
    let prog = F.Lower.compile w.D.w_source in
    Core.Pseudo_probe.insert prog;
    Opt.Pass.optimize ~config:options.D.opt_profiling prog;
    let bin = Cg.Emit.emit ~options:options.D.emit_opts prog in
    let log = Vm.Sample_log.create () in
    List.iter
      (fun (spec : D.run_spec) ->
        ignore
          (Vm.Machine.run ~pmu:(Some options.D.pmu)
             ~sink:(Vm.Sample_log.sink log) ~globals_init:spec.D.rs_globals
             ~args:spec.D.rs_args bin ~entry:w.D.w_entry))
      w.D.w_train;
    (bin, log)
  in
  let refp =
    let p = F.Lower.compile w.D.w_source in
    Core.Pseudo_probe.insert p;
    p
  in
  let trie =
    trie_of
      (Core.Correlate.run ~jobs:1 ~missing_frames:false ~trim:0L Core.Correlate.Ctx
         (Core.Correlate.target (Core.Correlate.symbols refp) pbin)
         (Core.Correlate.Log log))
  in
  ignore (CP.trim_cold trie ~threshold:8L);
  let sizes = Core.Size_extract.compute pbin in
  let decisions = Core.Preinliner.run trie sizes in
  Alcotest.(check bool) "some decisions" true (decisions <> []);
  (* hottest chain: probe under lookup_batch *)
  Alcotest.(check bool) "probe inlined somewhere" true
    (List.exists
       (fun (d : Core.Preinliner.decision) -> String.equal d.Core.Preinliner.d_callee_name "probe")
       decisions);
  (* after the run, unmarked contexts are merged: every remaining context
     node with samples must be marked inlined *)
  CP.iter_nodes trie (fun ctx node ->
      if ctx <> [] && Int64.compare node.CP.n_prof.PP.fe_total 0L > 0 && not node.CP.n_inlined
      then Alcotest.fail "unmarked context retained samples after pre-inliner")

let test_quality_metric () =
  let mk counts =
    let p = F.Lower.compile "fn main(a) { if (a > 0) { return 1; } return 2; }" in
    Ir.Program.iter_funcs
      (fun f -> ignore (Opt.Simplify.run ~config:Opt.Config.o2_nopgo f))
      p;
    let f = Ir.Program.func p "main" in
    List.iteri
      (fun i c ->
        match Ir.Func.find_block f i with
        | Some b -> b.Ir.Block.count <- c
        | None -> ())
      counts;
    f.Ir.Func.annotated <- true;
    p
  in
  let truth = mk [ 100L; 90L; 10L ] in
  Alcotest.(check (float 0.0001)) "identical = 1" 1.0
    (Core.Quality.block_overlap ~truth (mk [ 100L; 90L; 10L ]));
  Alcotest.(check (float 0.0001)) "scaled identical = 1" 1.0
    (Core.Quality.block_overlap ~truth (mk [ 200L; 180L; 20L ]));
  let skewed = Core.Quality.block_overlap ~truth (mk [ 100L; 10L; 90L ]) in
  Alcotest.(check bool) "skewed < 1" true (skewed < 0.7)

(* Degenerate inputs the report surface feeds the metric: unexecuted
   programs, single-block functions, and profiles at very different sample
   rates must not divide by zero or reward count magnitude. *)
let test_quality_edge_cases () =
  let mk counts =
    let p = F.Lower.compile "fn main(a) { if (a > 0) { return 1; } return 2; }" in
    Ir.Program.iter_funcs
      (fun f -> ignore (Opt.Simplify.run ~config:Opt.Config.o2_nopgo f))
      p;
    let f = Ir.Program.func p "main" in
    List.iteri
      (fun i c ->
        match Ir.Func.find_block f i with
        | Some b -> b.Ir.Block.count <- c
        | None -> ())
      counts;
    f.Ir.Func.annotated <- true;
    p
  in
  let main p = Ir.Program.func p "main" in
  (* zero total count on either side is "no data", not overlap 0 *)
  Alcotest.(check bool) "zero-count truth -> None" true
    (Core.Quality.func_overlap ~truth:(main (mk [ 0L; 0L; 0L ]))
       (main (mk [ 1L; 1L; 1L ]))
    = None);
  Alcotest.(check bool) "zero-count candidate -> None" true
    (Core.Quality.func_overlap ~truth:(main (mk [ 1L; 1L; 1L ]))
       (main (mk [ 0L; 0L; 0L ]))
    = None);
  Alcotest.(check (float 0.0001)) "both sides unexecuted -> 0.0" 0.0
    (Core.Quality.block_overlap ~truth:(mk [ 0L; 0L; 0L ]) (mk [ 0L; 0L; 0L ]));
  (* a single executed block always overlaps itself fully *)
  let single counts =
    let p = F.Lower.compile "fn main(a) { return a; }" in
    let f = Ir.Program.func p "main" in
    List.iteri
      (fun i c ->
        match Ir.Func.find_block f i with
        | Some b -> b.Ir.Block.count <- c
        | None -> ())
      counts;
    f.Ir.Func.annotated <- true;
    p
  in
  (match
     Core.Quality.func_overlap
       ~truth:(main (single [ 7L ]))
       (main (single [ 1_000_000L ]))
   with
  | Some d -> Alcotest.(check (float 0.0001)) "single block = 1" 1.0 d
  | None -> Alcotest.fail "single-block overlap missing");
  (* the metric compares shapes, not magnitudes: a 100x-cheaper sampling
     run with the same distribution scores 1.0 ... *)
  (match
     Core.Quality.func_overlap
       ~truth:(main (mk [ 100L; 100L; 0L ]))
       (main (mk [ 1L; 1L; 0L ]))
   with
  | Some d -> Alcotest.(check (float 0.0001)) "scaled asymmetry = 1" 1.0 d
  | None -> Alcotest.fail "scaled overlap missing");
  (* ... while misplaced mass costs exactly the misplaced fraction *)
  match
    Core.Quality.func_overlap
      ~truth:(main (mk [ 100L; 0L; 0L ]))
      (main (mk [ 50L; 50L; 0L ]))
  with
  | Some d -> Alcotest.(check (float 0.0001)) "half misplaced = 0.5" 0.5 d
  | None -> Alcotest.fail "asymmetric overlap missing"

let test_value_spec () =
  let src = "global d[4];\nfn main(n) { let s = 0; let i = 0; while (i < n) { s = s + (i + 100) / d[0]; i = i + 1; } return s; }" in
  let p = F.Lower.compile src in
  let vals = Core.Instrument.instrument_values p in
  let fresh = F.Lower.compile src in
  (* simulate a 100%-dominant histogram for site 0 *)
  let hist = Hashtbl.create 4 in
  Hashtbl.replace hist 0 (Hashtbl.create 4);
  Hashtbl.replace (Hashtbl.find hist 0) 9L 10000L;
  let dominant = Core.Instrument.dominant_values vals hist ~min_count:100L ~min_ratio:0.9 in
  Alcotest.(check int) "one dominant" 1 (Hashtbl.length dominant);
  let n = Core.Value_spec.apply fresh dominant in
  Alcotest.(check int) "one site specialized" 1 n;
  Ir.Verify.check_exn fresh;
  let eval prog d0 =
    let bin = Cg.Emit.emit ~options:Cg.Emit.default_options prog in
    (Vm.Machine.run ~pmu:None ~globals_init:[ ("d", [| d0; 0L; 0L; 0L |]) ] bin ~entry:"main"
       ~args:[ 50L ])
      .Vm.Machine.ret_value
  in
  let plain = F.Lower.compile src in
  (* fast path (d0 = 9) and slow path (d0 = 5) both preserved *)
  Alcotest.(check int64) "fast path semantics" (eval plain 9L) (eval fresh 9L);
  Alcotest.(check int64) "slow path semantics" (eval plain 5L) (eval fresh 5L)

let test_driver_all_variants_smoke () =
  (* End-to-end on the quickstart program: every variant builds and the
     optimized binaries compute identical results. *)
  let w =
    {
      D.w_name = "vecop";
      w_source = W.Suite.vecop_example;
      w_entry = "main";
      w_train =
        [ { D.rs_args = [ 256L; 30L ];
            rs_globals = [ ("va", Array.init 1024 Int64.of_int); ("vb", Array.init 1024 (fun i -> Int64.of_int (i * 3))) ] } ];
      w_eval =
        [ { D.rs_args = [ 256L; 40L ];
            rs_globals = [ ("va", Array.init 1024 (fun i -> Int64.of_int (i + 7))); ("vb", Array.init 1024 (fun i -> Int64.of_int (i * 5))) ] } ];
    }
  in
  let results =
    List.map
      (fun v ->
        let o = D.run_variant v w in
        let spec = List.hd w.D.w_eval in
        let r =
          Vm.Machine.run ~pmu:None ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args
            o.D.o_binary ~entry:"main"
        in
        (v, r.Vm.Machine.ret_value, o))
      [ D.Nopgo; D.Instr_pgo; D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full ]
  in
  let _, ref_val, _ = List.hd results in
  List.iter
    (fun (v, value, o) ->
      Alcotest.(check int64) (D.variant_name v ^ " result") ref_val value;
      Alcotest.(check bool) (D.variant_name v ^ " no stales") true (o.D.o_stales = []))
    results;
  (* probe metadata only for probe variants *)
  let get v = List.find (fun (v', _, _) -> v = v') results in
  let _, _, full = get D.Csspgo_full in
  let _, _, af = get D.Autofdo in
  Alcotest.(check bool) "csspgo has probe metadata" true (full.D.o_probe_meta_size > 0);
  Alcotest.(check int) "autofdo has none" 0 af.D.o_probe_meta_size

let test_skid_drops_samples () =
  (* Without PEBS, some samples must be detected as misaligned and dropped. *)
  let refp, bin = build_probed ~config:no_inline cs_src in
  let pmu = { pmu_101 with pebs = false; skid_prob = 0.8 } in
  let stats = (correlate ~pmu Core.Correlate.Ctx refp bin [ 120L ]).Core.Correlate.stats in
  Alcotest.(check bool) "skid causes drops" true
    (stats.Core.Ctx_reconstruct.st_dropped_misaligned > 0)

let suite =
  ( "core",
    [
      Alcotest.test_case "probe insertion" `Quick test_probe_insertion;
      Alcotest.test_case "checksum drift" `Quick test_checksum_drift;
      Alcotest.test_case "stale profile rejected" `Quick test_stale_profile_rejected;
      Alcotest.test_case "probe correlation sums copies" `Quick test_probe_correlation_sums_copies;
      Alcotest.test_case "algorithm 1 separates contexts" `Quick test_ctx_reconstruction_separates_contexts;
      Alcotest.test_case "context totals match flat" `Quick test_ctx_totals_match_flat;
      Alcotest.test_case "missing frame inference" `Quick test_missing_frame_inference;
      Alcotest.test_case "algorithm 3 sizes" `Quick test_size_extract;
      Alcotest.test_case "algorithm 2 pre-inliner" `Slow test_preinliner_marks_hot_chain;
      Alcotest.test_case "block overlap metric" `Quick test_quality_metric;
      Alcotest.test_case "overlap edge cases" `Quick test_quality_edge_cases;
      Alcotest.test_case "value specialization" `Quick test_value_spec;
      Alcotest.test_case "driver all variants" `Slow test_driver_all_variants_smoke;
      Alcotest.test_case "skid detection" `Quick test_skid_drops_samples;
    ] )
