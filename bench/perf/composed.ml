(* The traced pipeline: the same units the black-box entry points run
   ([Driver.Plan.run], [Fleet.Sim.run], [Fleet.Tenancy.collect] and
   [specialize]), recomposed from each layer's public functions with a
   ledger span around every call. It must reproduce the black-box result
   byte-for-byte; the benchmark checks that on every traced unit.

   One deliberate difference from [Plan.run]: the profiling run records the
   sample log alone, and range aggregation and the missing-frame table are
   built by replaying it, as the fleet collector path does. That splits the
   VM's cost from the profile generator's; the extra replay shows up in
   [ledger.trace_overhead], not in any result. *)

module Ir = Csspgo_ir
module F = Csspgo_frontend
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module P = Csspgo_profile
module Pg = Csspgo_profgen
module Core = Csspgo_core
module D = Core.Driver
module Pl = D.Plan
module Fl = Csspgo_fleet
module W = Csspgo_workloads
module Obs = Csspgo_obs
module S = Csspgo_orchestrator.Scheduler
module Fnv = Csspgo_support.Fnv

let span = Ledger.span

let lower src = span "frontend.lower" (fun () -> F.Lower.compile src)
let insert_probes p = span "core.probe_insert" (fun () -> Core.Pseudo_probe.insert p)
let optimize config p = span "opt.optimize" (fun () -> Opt.Pass.optimize ~config p)

let emit options p =
  span "codegen.emit" (fun () ->
      let b = Cg.Emit.emit ~options p in
      Ledger.count "codegen.text_bytes" (float_of_int b.Cg.Mach.text_size);
      b)

let render p =
  span "profile.text_render" (fun () ->
      let s = P.Text_io.to_string p in
      Ledger.count "profile.text_bytes" (float_of_int (String.length s));
      s)

let parse ?kind text = span "profile.text_parse" (fun () -> P.Text_io.of_string ?kind text)
let bindex bin = span "profgen.bindex" (fun () -> Pg.Bindex.create bin)

(* A serialized correlation result, rendered only when a fingerprint is
   taken, so the cost stays outside every span. *)
type correlated = unit -> string

(* The black-box side of the composition check: [Plan.run] hooks that keep
   every "correlate" memo value, exactly as a cache would serialize it. *)
let capture_hooks () =
  let kept : correlated list ref = ref [] in
  let memo ~kind ~key:_ ~ser ~de:_ f =
    let v = f () in
    if String.equal kind "correlate" then kept := (fun () -> ser v) :: !kept;
    v
  in
  ({ Pl.default_hooks with Pl.memo }, fun () -> List.rev !kept)

(* --- Driver.Plan.run, stage by stage ----------------------------------- *)

type runs = {
  cycles : int64;
  instructions : int64;
  icache_misses : int64;
  taken_branches : int64;
  n_samples : int;
  counters : int64 array option;
  values : (int, (int64, int64) Hashtbl.t) Hashtbl.t;
}

(* The driver's [run_specs]: cycles add, counters add elementwise, value
   histograms add per site in the same insertion order. *)
let run_specs ~pmu ?sink bin ~entry specs =
  let values = Hashtbl.create 8 in
  List.fold_left
    (fun acc (spec : D.run_spec) ->
      let r =
        Vm.Machine.run ~pmu ?sink ~globals_init:spec.D.rs_globals
          ~args:spec.D.rs_args bin ~entry
      in
      let counters =
        match acc.counters with
        | None -> Some r.Vm.Machine.counters
        | Some cs ->
            Array.iteri
              (fun i c -> if i < Array.length cs then cs.(i) <- Int64.add cs.(i) c)
              r.Vm.Machine.counters;
            Some cs
      in
      Hashtbl.iter
        (fun site hist ->
          let dst =
            match Hashtbl.find_opt values site with
            | Some dst -> dst
            | None ->
                let dst = Hashtbl.create 8 in
                Hashtbl.replace values site dst;
                dst
          in
          Hashtbl.iter
            (fun v c ->
              Hashtbl.replace dst v
                (Int64.add c (Option.value (Hashtbl.find_opt dst v) ~default:0L)))
            hist)
        r.Vm.Machine.value_profiles;
      {
        acc with
        cycles = Int64.add acc.cycles r.Vm.Machine.cycles;
        instructions = Int64.add acc.instructions r.Vm.Machine.instructions;
        icache_misses = Int64.add acc.icache_misses r.Vm.Machine.icache_misses;
        taken_branches = Int64.add acc.taken_branches r.Vm.Machine.taken_branches;
        n_samples = acc.n_samples + r.Vm.Machine.n_samples;
        counters;
      })
    {
      cycles = 0L;
      instructions = 0L;
      icache_misses = 0L;
      taken_branches = 0L;
      n_samples = 0;
      counters = None;
      values;
    }
    specs

(* The driver's serialized-size estimates for flat profiles. *)
let line_profile_size (lp : P.Line_profile.t) =
  Ir.Guid.Tbl.fold
    (fun _ fe acc ->
      acc + 24
      + (12 * Hashtbl.length fe.P.Line_profile.fe_lines)
      + (18 * Hashtbl.length fe.P.Line_profile.fe_calls))
    lp.P.Line_profile.funcs 0

let probe_profile_size (pp : P.Probe_profile.t) =
  Ir.Guid.Tbl.fold
    (fun _ fe acc ->
      acc + 24
      + (10 * Hashtbl.length fe.P.Probe_profile.fe_probes)
      + (18 * Hashtbl.length fe.P.Probe_profile.fe_calls))
    pp.P.Probe_profile.funcs 0

type profiled = {
  pr_bin : Cg.Mach.binary;
  pr_agg : Pg.Ranges.agg;
  pr_missing : Core.Missing_frame.t option;
  pr_log : Vm.Sample_log.t;
  pr_runs : runs;
  pr_instr : (Core.Instrument.t * Core.Instrument.values) option;
}

type profile =
  | Lines of P.Line_profile.t
  | Probes of P.Probe_profile.t
  | Ctx of { trie : P.Ctx_profile.t; flat : P.Probe_profile.t }
  | Counters of {
      counts : (Ir.Guid.t * Ir.Types.label, int64) Hashtbl.t;
      dominant : (Core.Instrument.vsite_key, int64) Hashtbl.t;
    }

type plan_result = {
  pl_eval : D.eval;
  pl_bin : Cg.Mach.binary;
  pl_profile_size : int;
  pl_annotated : Ir.Program.t;
  pl_correlated : correlated list;
}

let run_plan (plan : Pl.t) =
  let w = plan.Pl.pl_workload in
  let options = plan.Pl.pl_options in
  (* Reference names and probe checksums, built on first use like the
     driver's memoized ref-info. *)
  let ref_info =
    lazy
      (let refp = lower w.D.w_source in
       insert_probes refp;
       let names = Ir.Guid.Tbl.create 64 and checksums = Ir.Guid.Tbl.create 64 in
       Ir.Program.iter_funcs
         (fun f ->
           Ir.Guid.Tbl.replace names f.Ir.Func.guid f.Ir.Func.name;
           Ir.Guid.Tbl.replace checksums f.Ir.Func.guid f.Ir.Func.checksum)
         refp;
       (names, checksums))
  in
  let name_of g = Ir.Guid.Tbl.find_opt (fst (Lazy.force ref_info)) g in
  let checksum_of g =
    Option.value (Ir.Guid.Tbl.find_opt (snd (Lazy.force ref_info)) g) ~default:0L
  in
  let compile_spec = ref None and instr_spec = ref None in
  let prof = ref None and profile = ref None and profile_size = ref 0 in
  let correlated = ref [] in
  let keep c = correlated := c :: !correlated in
  let rebuild_source = w.D.w_source in
  let annotated = ref None and final = ref None and eval_out = ref None in
  let exec = function
    | Pl.Compile cs -> compile_spec := Some cs
    | Pl.Instrument is -> instr_spec := Some is
    | Pl.Profile_run ps ->
        let cs = Option.get !compile_spec in
        let prog = lower cs.Pl.c_source in
        if cs.Pl.c_probes then insert_probes prog;
        let instr =
          Option.map
            (fun (is : Pl.instrument_spec) ->
              span "core.instrument" (fun () ->
                  let im =
                    if is.Pl.i_counters then Core.Instrument.instrument prog
                    else { Core.Instrument.counter_of = Hashtbl.create 1; n_counters = 0 }
                  in
                  let vals =
                    if is.Pl.i_values then Core.Instrument.instrument_values prog
                    else { Core.Instrument.site_of = Hashtbl.create 1; n_sites = 0 }
                  in
                  (im, vals)))
            !instr_spec
        in
        optimize ps.Pl.p_config prog;
        let bin = emit ps.Pl.p_emit prog in
        let log = Vm.Sample_log.create () in
        let runs =
          span "vm.profile" (fun () ->
              let r =
                run_specs ~pmu:ps.Pl.p_pmu ~sink:(Vm.Sample_log.sink log) bin
                  ~entry:ps.Pl.p_entry ps.Pl.p_train
              in
              Vm.Sample_log.compact log;
              r)
        in
        Ledger.count "vm.samples" (float_of_int runs.n_samples);
        Ledger.count "vm.profile_cycles" (Int64.to_float runs.cycles);
        let agg =
          span "profgen.ranges" (fun () ->
              let agg = Pg.Ranges.create () in
              Vm.Sample_log.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
                  Pg.Ranges.feed agg ~lbr ~lbr_len);
              agg)
        in
        let missing =
          match ps.Pl.p_pmu with
          | None -> None
          | Some _ ->
              let ix = bindex bin in
              Some
                (span "core.missing_frame" (fun () ->
                     let mb = Core.Missing_frame.start ix in
                     Vm.Sample_log.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
                         Core.Missing_frame.feed mb ~lbr ~lbr_len);
                     Core.Missing_frame.finish mb))
        in
        prof :=
          Some
            {
              pr_bin = bin;
              pr_agg = agg;
              pr_missing = missing;
              pr_log = log;
              pr_runs = runs;
              pr_instr = instr;
            }
    | Pl.Correlate { Pl.x_correlator } -> (
        let po = Option.get !prof in
        let index = lazy (bindex po.pr_bin) in
        let probe_flat () =
          let pp =
            span "core.probe_corr" (fun () ->
                Core.Probe_corr.correlate_agg ~name_of ~index:(Lazy.force index)
                  ~checksum_of po.pr_bin po.pr_agg)
          in
          let text = render (P.Text_io.Probe_prof pp) in
          keep (fun () -> text);
          pp
        in
        match x_correlator with
        | Pl.Corr_lines ->
            let lp =
              span "profgen.dwarf_corr" (fun () ->
                  Pg.Dwarf_corr.correlate_agg ~name_of ~index:(Lazy.force index)
                    po.pr_bin po.pr_agg)
            in
            let text = render (P.Text_io.Line_prof lp) in
            keep (fun () -> text);
            profile := Some (Lines lp);
            profile_size := line_profile_size lp
        | Pl.Corr_probes ->
            let pp = probe_flat () in
            profile := Some (Probes pp);
            profile_size := probe_profile_size pp
        | Pl.Corr_ctx { cc_missing_frames; cc_trim_threshold } ->
            let missing = if cc_missing_frames then po.pr_missing else None in
            let trie, stats =
              span "core.ctx_reconstruct" (fun () ->
                  let st =
                    Core.Ctx_reconstruct.start ~name_of ?missing ~checksum_of
                      (Lazy.force index)
                  in
                  Vm.Sample_log.iter po.pr_log (fun ~lbr ~lbr_len ~stack ~stack_len ->
                      Core.Ctx_reconstruct.feed st ~lbr ~lbr_len ~stack ~stack_len);
                  Core.Ctx_reconstruct.finish st)
            in
            let c name v = Ledger.count name (float_of_int v) in
            c "core.ctx_samples" stats.Core.Ctx_reconstruct.st_samples;
            c "core.ctx_dropped" stats.Core.Ctx_reconstruct.st_dropped_misaligned;
            c "core.gaps_resolved" stats.Core.Ctx_reconstruct.st_gaps_resolved;
            c "core.gaps_failed" stats.Core.Ctx_reconstruct.st_gaps_failed;
            span "profile.trim" (fun () ->
                c "profile.ctx_nodes_untrimmed" (P.Ctx_profile.n_nodes trie);
                if Int64.compare cc_trim_threshold 0L > 0 then
                  ignore (P.Ctx_profile.trim_cold trie ~threshold:cc_trim_threshold);
                c "profile.ctx_nodes" (P.Ctx_profile.n_nodes trie));
            let text = render (P.Text_io.Ctx_prof trie) in
            keep (fun () -> Marshal.to_string (text, stats) []);
            let flat = probe_flat () in
            profile := Some (Ctx { trie; flat })
        | Pl.Corr_counters { cn_min_count; cn_min_ratio } ->
            let im, vals = Option.get po.pr_instr in
            let counts, dominant =
              span "core.instrument" (fun () ->
                  let counts =
                    Core.Instrument.block_counts im
                      (Option.value po.pr_runs.counters
                         ~default:(Array.make im.Core.Instrument.n_counters 0L))
                  in
                  ( counts,
                    Core.Instrument.dominant_values vals po.pr_runs.values
                      ~min_count:cn_min_count ~min_ratio:cn_min_ratio ))
            in
            keep (fun () -> Marshal.to_string (counts, dominant) []);
            profile := Some (Counters { counts; dominant });
            profile_size := 8 * im.Core.Instrument.n_counters)
    | Pl.Use_profile us -> (
        match parse us.Pl.u_text with
        | P.Text_io.Line_prof lp ->
            profile := Some (Lines lp);
            profile_size := line_profile_size lp
        | P.Text_io.Probe_prof pp ->
            profile := Some (Probes pp);
            profile_size := probe_profile_size pp
        | P.Text_io.Ctx_prof trie ->
            let flat =
              match us.Pl.u_flat_text with
              | Some t -> (
                  match parse ~kind:P.Text_io.Probe t with
                  | P.Text_io.Probe_prof pp -> pp
                  | _ -> assert false)
              | None -> span "profile.merge" (fun () -> P.Merge.flatten_ctx trie)
            in
            profile := Some (Ctx { trie; flat });
            profile_size := P.Ctx_profile.size_bytes trie)
    | Pl.Stale_apply _ -> invalid_arg "run_plan: no workload runs Stale_apply"
    | Pl.Preinline { Pl.pi_config } -> (
        match !profile with
        | Some (Ctx { trie; _ }) ->
            (match pi_config with
            | Some config ->
                let sizes_of bin =
                  span "core.size_extract" (fun () -> Core.Size_extract.compute bin)
                in
                let sizes =
                  match !prof with
                  | Some po -> sizes_of po.pr_bin
                  | None ->
                      (* An injected profile has no profiling binary: build
                         the probed profiling shape of the rebuild source. *)
                      let prog = lower rebuild_source in
                      insert_probes prog;
                      optimize options.D.opt_profiling prog;
                      sizes_of (emit options.D.emit_opts prog)
                in
                let decisions =
                  span "core.preinline" (fun () -> Core.Preinliner.run ~config trie sizes)
                in
                Ledger.count "core.preinline_decisions"
                  (float_of_int (List.length decisions))
            | None ->
                span "profile.trim" (fun () ->
                    ignore (P.Ctx_profile.trim_cold trie ~threshold:Int64.max_int)));
            profile_size := P.Ctx_profile.size_bytes trie;
            ignore (render (P.Text_io.Ctx_prof trie))
        | _ -> ())
    | Pl.Rebuild rs ->
        let prog = lower rebuild_source in
        if rs.Pl.r_probes then insert_probes prog;
        Option.iter (fun config -> optimize config prog) rs.Pl.r_prepass;
        span "core.annotate" (fun () ->
            match !profile with
            | None -> ()
            | Some (Lines lp) -> Core.Annotate.lines lp prog
            | Some (Probes pp) -> ignore (Core.Annotate.probes pp prog)
            | Some (Ctx { trie; _ }) -> ignore (Core.Annotate.ctx trie prog)
            | Some (Counters { counts; dominant }) ->
                Core.Annotate.exact counts prog;
                ignore (Core.Value_spec.apply prog dominant));
        (annotated :=
           match !profile with
           | Some (Ctx { flat; _ }) ->
               let qp = lower rebuild_source in
               insert_probes qp;
               span "core.annotate" (fun () -> ignore (Core.Annotate.probes flat qp));
               Some qp
           | _ -> Some (span "core.annotate" (fun () -> Ir.Program.copy prog)));
        (* The driver keys its final-build cache on this digest even when no
           cache is configured. *)
        span "profile.fingerprint" (fun () ->
            let digest p = ignore (P.Fingerprint.merged p) in
            match !profile with
            | Some (Lines lp) -> digest (P.Text_io.Line_prof lp)
            | Some (Probes pp) -> digest (P.Text_io.Probe_prof pp)
            | Some (Ctx { trie; _ }) -> digest (P.Text_io.Ctx_prof trie)
            | Some (Counters _) | None -> ());
        span "opt.optimize" (fun () ->
            let config = rs.Pl.r_config in
            if Opt.Pass.prepare ~config prog then begin
              let steps = Opt.Pass.steps_of_config config in
              Ir.Program.iter_funcs
                (fun f -> Opt.Pass.optimize_func_with ~config ~steps ~program:prog f)
                prog;
              if config.Opt.Config.verify_between_passes && Ir.Verify.program prog <> []
              then failwith "run_plan: incremental pipeline broke the IR"
            end);
        final := Some (emit rs.Pl.r_emit prog)
    | Pl.Evaluate es ->
        let r =
          span "vm.eval" (fun () ->
              run_specs ~pmu:None (Option.get !final) ~entry:es.Pl.e_entry es.Pl.e_eval)
        in
        Ledger.count "vm.eval_instructions" (Int64.to_float r.instructions);
        eval_out :=
          Some
            {
              D.ev_cycles = r.cycles;
              ev_instructions = r.instructions;
              ev_icache_misses = r.icache_misses;
              ev_taken_branches = r.taken_branches;
            }
  in
  List.iter exec plan.Pl.pl_stages;
  {
    pl_eval = Option.get !eval_out;
    pl_bin = Option.get !final;
    pl_profile_size = !profile_size;
    pl_annotated = Option.get !annotated;
    pl_correlated = List.rev !correlated;
  }

(* --- Fleet.Sim.run, phase by phase -------------------------------------- *)

(* Contiguous block partition, as [Sim] and [Tenancy] serve requests. *)
let partition k xs =
  let n = List.length xs in
  let rec go i xs =
    if i = k then []
    else
      let size = (n / k) + if i < n mod k then 1 else 0 in
      List.filteri (fun j _ -> j < size) xs
      :: go (i + 1) (List.filteri (fun j _ -> j >= size) xs)
  in
  go 0 xs

type fleet_result = {
  fr_profile : P.Text_io.profile;
  fr_flat : P.Probe_profile.t option;
  fr_target : Fl.Build.built;
  fr_cycles : int64;
  fr_samples : int;
  fr_batches : int;
  fr_bytes : int;
  fr_chunks : (Fl.Build.built * Vm.Sample_log.t list) list;
      (* per version, for timing correlation at another job count *)
}

let serve_span instances serve =
  let served = span "fleet.serve" (fun () -> serve instances) in
  let batches = List.concat_map snd served in
  Ledger.count "fleet.batches" (float_of_int (List.length batches));
  Ledger.count "fleet.bytes"
    (float_of_int
       (List.fold_left (fun a b -> a + String.length b.Fl.Instance.b_blob) 0 batches));
  served

let collector_span ~shards served drain =
  let metrics = Obs.Metrics.create () in
  let out =
    span "collector.drain" (fun () ->
        let c = Fl.Collector.create ~obs:metrics ~shards () in
        List.iter (fun (_, bs) -> List.iter (Fl.Collector.ingest c) bs) served;
        drain c)
  in
  Ledger.count "collector.dropped_blobs"
    (float_of_int
       (Option.value ~default:0
          (Obs.Metrics.find_counter (Obs.Metrics.snapshot metrics)
             "collector.dropped-blobs")));
  out

let sim (cfg : Fl.Sim.config) ~(workload : D.workload) ~versions =
  let versions = List.sort (fun a b -> compare a.Fl.Sim.v_id b.Fl.Sim.v_id) versions in
  let jobs = max 1 cfg.Fl.Sim.f_jobs in
  let options = cfg.Fl.Sim.f_options and shape = cfg.Fl.Sim.f_shape in
  let requests =
    List.concat (List.init cfg.Fl.Sim.f_request_copies (fun _ -> workload.D.w_train))
  in
  let builds =
    span "fleet.build" (fun () ->
        S.map ~jobs
          (fun v -> Fl.Build.profiling_build ~options ~shape ~source:v.Fl.Sim.v_source)
          versions)
  in
  let built = List.combine (List.map (fun v -> v.Fl.Sim.v_id) versions) builds in
  let built_of v = List.assoc v.Fl.Sim.v_id built in
  let instances =
    List.concat_map
      (fun v -> List.map (fun block -> (v, block)) (partition v.Fl.Sim.v_instances requests))
      versions
    |> List.mapi (fun id (v, block) -> (id, v, block))
  in
  let served =
    serve_span instances
      (S.map ~jobs (fun (id, v, block) ->
           let batches = ref [] in
           let report =
             Fl.Instance.serve
               {
                 Fl.Instance.ic_instance = id;
                 ic_version = v.Fl.Sim.v_id;
                 ic_duty = cfg.Fl.Sim.f_duty;
                 ic_batch_requests = cfg.Fl.Sim.f_batch_requests;
                 ic_seed = Fnv.int64 (Fnv.int cfg.Fl.Sim.f_seed id) (Int64.of_int v.Fl.Sim.v_id);
               }
               ~pmu:options.D.pmu ~bin:(built_of v).Fl.Build.vb_bin
               ~entry:workload.D.w_entry ~requests:block
               ~ship:(fun b -> batches := b :: !batches)
           in
           (report, List.rev !batches)))
  in
  let drained =
    collector_span ~shards:cfg.Fl.Sim.f_shards served (Fl.Collector.drain_chunks ~jobs)
  in
  let chunks_of v =
    match List.find_opt (fun k -> k.Fl.Collector.k_version = v.Fl.Sim.v_id) drained with
    | Some k -> k.Fl.Collector.k_chunks
    | None -> []
  in
  let profiles =
    span "fleet.correlate" (fun () ->
        List.map
          (fun v ->
            Fl.Build.correlate_chunks ~jobs ~options ~shape (built_of v) (chunks_of v))
          versions)
  in
  let target_v = List.nth versions (List.length versions - 1) in
  let target = built_of target_v in
  let routed =
    span "core.stale_match" (fun () ->
        List.map2
          (fun v (prof, flat) ->
            if v.Fl.Sim.v_id = target_v.Fl.Sim.v_id then (v, prof, flat, None)
            else
              let prof', rep = Fl.Build.match_onto ~target:target.Fl.Build.vb_target prof in
              let flat' =
                Option.map
                  (fun f ->
                    fst (Core.Stale_match.match_probe ~target:target.Fl.Build.vb_target f))
                  flat
              in
              (v, prof', flat', Some rep))
          versions profiles)
  in
  List.iter
    (fun (_, _, _, rep) ->
      Option.iter
        (fun r -> Ledger.count "core.stale_recovery" (Core.Stale_match.recovery_rate r))
        rep)
    routed;
  let profile, flat =
    span "profile.merge" (fun () ->
        let profile =
          P.Merge.weighted ~kind:(Fl.Build.kind_of_shape shape)
            (List.map (fun (v, p, _, _) -> (v.Fl.Sim.v_weight, p)) routed)
        in
        let flat =
          match shape with
          | Fl.Build.Ctx -> (
              match
                P.Merge.weighted ~kind:P.Text_io.Probe
                  (List.map
                     (fun (v, _, f, _) -> (v.Fl.Sim.v_weight, P.Text_io.Probe_prof (Option.get f)))
                     routed)
              with
              | P.Text_io.Probe_prof pp -> Some pp
              | _ -> assert false)
          | Fl.Build.Lines | Fl.Build.Probes -> None
        in
        (profile, flat))
  in
  let reports = List.map fst served in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  {
    fr_profile = profile;
    fr_flat = flat;
    fr_target = target;
    fr_cycles =
      List.fold_left (fun a r -> Int64.add a r.Fl.Instance.ir_cycles) 0L reports;
    fr_samples = sum (fun r -> r.Fl.Instance.ir_samples);
    fr_batches = sum (fun r -> r.Fl.Instance.ir_batches);
    fr_bytes =
      List.fold_left
        (fun a (_, bs) ->
          List.fold_left (fun a b -> a + String.length b.Fl.Instance.b_blob) a bs)
        0 served;
    fr_chunks = List.map (fun v -> (built_of v, chunks_of v)) versions;
  }

(* The driver's injected-profile plan; building it renders the profile. *)
let with_profile ~options ~profile ?flat w =
  span "profile.text_render" (fun () -> Pl.make_with_profile ~options ~profile ?flat w)

(* --- Fleet.Tenancy.collect and specialize ------------------------------- *)

type tenancy_result = {
  tr_labeled : Fl.Build.labeled;
  tr_tenants : P.Labels.t;
  tr_cycles : int64;
  tr_samples : int;
  tr_specialized : (string * plan_result option * plan_result) list;
}

let tenancy (cfg : Fl.Tenancy.config) (mix : W.Mix.t) =
  let jobs = max 1 cfg.Fl.Tenancy.ty_jobs in
  let options = cfg.Fl.Tenancy.ty_options and shape = cfg.Fl.Tenancy.ty_shape in
  let w = mix.W.Mix.mx_workload in
  let build =
    span "fleet.build" (fun () ->
        Fl.Build.profiling_build ~options ~shape ~source:w.D.w_source)
  in
  let blocks =
    List.mapi (fun id b -> (id, b)) (partition cfg.Fl.Tenancy.ty_instances mix.W.Mix.mx_requests)
  in
  let served =
    serve_span blocks
      (S.map ~jobs (fun (id, block) ->
           let batches = ref [] in
           let report =
             Fl.Instance.serve_labeled
               {
                 Fl.Instance.ic_instance = id;
                 ic_version = 0;
                 ic_duty = cfg.Fl.Tenancy.ty_duty;
                 ic_batch_requests = cfg.Fl.Tenancy.ty_batch_requests;
                 ic_seed = Fnv.int64 (Fnv.int cfg.Fl.Tenancy.ty_seed id) 0L;
               }
               ~pmu:options.D.pmu ~bin:build.Fl.Build.vb_bin ~entry:w.D.w_entry
               ~requests:block
               ~ship:(fun b -> batches := b :: !batches)
           in
           (report, List.rev !batches)))
  in
  let log =
    collector_span ~shards:cfg.Fl.Tenancy.ty_shards served (fun c ->
        match Fl.Collector.drain ~jobs c with
        | [ m ] -> m.Fl.Collector.m_log
        | [] -> Vm.Sample_log.create ()
        | _ -> assert false)
  in
  let labeled =
    span "fleet.correlate_labeled" (fun () ->
        Fl.Build.correlate_labeled ~jobs ~options ~shape build log)
  in
  let tenants =
    span "profile.merge" (fun () ->
        P.Labels.project labeled.Fl.Build.lc_slices ~keys:[ W.Mix.tenant_key ])
  in
  let specialized =
    List.map
      (fun (name, evals) ->
        let tw = { w with D.w_eval = evals } in
        let slice =
          P.Labels.find tenants (Csspgo_support.Label_set.of_list [ (W.Mix.tenant_key, name) ])
        in
        let sliced =
          Option.map
            (fun s -> run_plan (with_profile ~options ~profile:s.P.Labels.sl_profile tw))
            slice
        in
        let blended =
          run_plan
            (with_profile ~options ~profile:labeled.Fl.Build.lc_blend
               ?flat:labeled.Fl.Build.lc_flat tw)
        in
        (name, sliced, blended))
      mix.W.Mix.mx_tenant_evals
  in
  let reports = List.map fst served in
  {
    tr_labeled = labeled;
    tr_tenants = tenants;
    tr_cycles = List.fold_left (fun a r -> Int64.add a r.Fl.Instance.ir_cycles) 0L reports;
    tr_samples = List.fold_left (fun a r -> a + r.Fl.Instance.ir_samples) 0 reports;
    tr_specialized = specialized;
  }
