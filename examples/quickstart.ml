(* Quickstart: the paper's Fig. 3/4 example, end to end.

   The program (see Workloads.Suite.vecop_example) has a shared helper
   [scalar_op] that adds when called from [add_vector_head] and subtracts
   when called from [sub_vector_head]. We:
     1. build a profiling binary with pseudo-probes,
     2. sample it with synchronized LBR + stack sampling,
     3. reconstruct the context-sensitive profile (Algorithm 1) and print
        scalar_op's two contexts — the Fig. 3b insight,
     4. run the full CSSPGO pipeline and compare against AutoFDO. *)

module F = Csspgo_frontend
module Ir = Csspgo_ir
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module P = Csspgo_profile
module Core = Csspgo_core
module D = Core.Driver
module W = Csspgo_workloads

(* A probed profiling build sampled over the training inputs. *)
let profiling_run (w : D.workload) =
  let options = D.default_options in
  let prog = F.Lower.compile w.D.w_source in
  Core.Pseudo_probe.insert prog;
  Opt.Pass.optimize ~config:options.D.opt_profiling prog;
  let bin = Cg.Emit.emit ~options:options.D.emit_opts prog in
  let log = Vm.Sample_log.create () in
  List.iter
    (fun (spec : D.run_spec) ->
      ignore
        (Vm.Machine.run ~pmu:(Some options.D.pmu) ~sink:(Vm.Sample_log.sink log)
           ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args bin
           ~entry:w.D.w_entry))
    w.D.w_train;
  (bin, log)

let () =
  print_endline "== CSSPGO quickstart: the scalarOp example (paper Fig. 3/4) ==\n";
  let globals seed =
    let rng = Csspgo_support.Rng.create seed in
    [ ("va", W.Inputs.array rng 1024 ~max:1000); ("vb", W.Inputs.array rng 1024 ~max:1000) ]
  in
  let w =
    {
      D.w_name = "vecop";
      w_source = W.Suite.vecop_example;
      w_entry = "main";
      w_train = [ { D.rs_args = [ 512L; 60L ]; rs_globals = globals 1L } ];
      w_eval = [ { D.rs_args = [ 512L; 80L ]; rs_globals = globals 2L } ];
    }
  in
  (* Steps 1-3: look inside the context-sensitive profile. *)
  let pbin, log = profiling_run w in
  let refp =
    let p = F.Lower.compile w.D.w_source in
    Core.Pseudo_probe.insert p;
    p
  in
  let name_of g = Option.map (fun f -> f.Ir.Func.name) (Ir.Program.find_func_by_guid refp g) in
  let checksum_of g =
    match Ir.Program.find_func_by_guid refp g with Some f -> f.Ir.Func.checksum | None -> 0L
  in
  let trie, stats =
    let st = Core.Ctx_reconstruct.start ~name_of ~checksum_of (Csspgo_profgen.Bindex.create pbin) in
    Vm.Sample_log.iter log (Core.Ctx_reconstruct.feed st);
    Core.Ctx_reconstruct.finish st
  in
  Printf.printf "collected %d samples (%d dropped as misaligned)\n\n"
    stats.Core.Ctx_reconstruct.st_samples stats.Core.Ctx_reconstruct.st_dropped_misaligned;
  print_endline "contexts observed for scalar_op (Fig. 3b — one per caller):";
  let leaf = Ir.Guid.of_name "scalar_op" in
  P.Ctx_profile.iter_nodes trie (fun ctx node ->
      if Ir.Guid.equal node.P.Ctx_profile.n_func leaf && ctx <> [] then begin
        let path =
          String.concat " @ "
            (List.map
               (fun (g, site) ->
                 Printf.sprintf "%s:%d"
                   (Option.value (name_of g) ~default:"?")
                   site)
               ctx)
        in
        Printf.printf "  [%s] -> scalar_op   samples=%Ld\n" path
          node.P.Ctx_profile.n_prof.P.Probe_profile.fe_total
      end);
  (* Step 4: full comparison. *)
  print_endline "\nbuilding all PGO variants...";
  let baseline = D.run_variant D.Autofdo w in
  let base = Int64.to_float baseline.D.o_eval.D.ev_cycles in
  List.iter
    (fun v ->
      let o = D.run_variant v w in
      let c = Int64.to_float o.D.o_eval.D.ev_cycles in
      Printf.printf "  %-18s %12.0f cycles  (%+.2f%% vs AutoFDO)  text=%d B\n"
        (D.variant_name v) c
        ((base -. c) /. base *. 100.)
        o.D.o_text_size)
    [ D.Nopgo; D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full; D.Instr_pgo ];
  let full = D.run_variant D.Csspgo_full w in
  Printf.printf "\npre-inliner made %d context-sensitive inline decisions\n"
    (List.length full.D.o_preinline_decisions);
  List.iter
    (fun (d : Core.Preinliner.decision) ->
      Printf.printf "  inline %-16s (count=%Ld, binary size=%dB, context depth %d)\n"
        d.Core.Preinliner.d_callee_name d.Core.Preinliner.d_count d.Core.Preinliner.d_size
        (List.length d.Core.Preinliner.d_context))
    full.D.o_preinline_decisions
