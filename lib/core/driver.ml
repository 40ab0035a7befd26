module Ir = Csspgo_ir
module Fnv = Csspgo_support.Fnv
module Frontend = Csspgo_frontend
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module P = Csspgo_profile
module Obs = Csspgo_obs

type run_spec = {
  rs_args : int64 list;
  rs_globals : (string * int64 array) list;
}

type workload = {
  w_name : string;
  w_source : string;
  w_entry : string;
  w_train : run_spec list;
  w_eval : run_spec list;
}

type variant = Nopgo | Instr_pgo | Autofdo | Csspgo_probe_only | Csspgo_full

let variant_name = function
  | Nopgo -> "no-pgo"
  | Instr_pgo -> "instr-pgo"
  | Autofdo -> "autofdo"
  | Csspgo_probe_only -> "csspgo-probe-only"
  | Csspgo_full -> "csspgo"

type options = {
  pmu : Vm.Machine.pmu;
  opt_profiling : Opt.Config.t;
  emit_opts : Cg.Emit.options;
  trim_threshold : int64;
  preinline : Preinliner.config option;
  use_missing_frame_inference : bool;
}

let default_options =
  {
    pmu = { Vm.Machine.default_pmu with sample_period = 1009 };
    opt_profiling = Opt.Config.o2_nopgo;
    emit_opts = Cg.Emit.default_options;
    trim_threshold = 8L;
    preinline = Some Preinliner.default_config;
    use_missing_frame_inference = true;
  }

type eval = {
  ev_cycles : int64;
  ev_instructions : int64;
  ev_icache_misses : int64;
  ev_taken_branches : int64;
}

type outcome = {
  o_variant : variant;
  o_eval : eval;
  o_text_size : int;
  o_debug_size : int;
  o_probe_meta_size : int;
  o_profiling_cycles : int64;
  o_annotated : Ir.Program.t;
  o_stales : Annotate.stale list;
  o_recon_stats : Ctx_reconstruct.stats option;
  o_preinline_decisions : Preinliner.decision list;
  o_binary : Cg.Mach.binary;
  o_profile_size : int;
  o_stale_report : Stale_match.report option;
}

let compile (w : workload) = Frontend.Lower.compile w.w_source

(* Reference program carrying pseudo-probe checksums and symbol names. *)
let reference (w : workload) =
  let p = compile w in
  Pseudo_probe.insert p;
  p

type runs = {
  r_n_samples : int;
  r_cycles : int64;
  r_instrs : int64;
  r_imiss : int64;
  r_branches : int64;
  r_counters : int64 array option;
  r_values : (int, (int64, int64) Hashtbl.t) Hashtbl.t;
}

let run_specs ?(pmu = None) ?sink ?obs (bin : Cg.Mach.binary) ~entry specs =
  List.fold_left
    (fun acc spec ->
      let r =
        Vm.Machine.run ~pmu ?sink ?obs ~globals_init:spec.rs_globals
          ~args:spec.rs_args bin ~entry
      in
      let counters =
        match acc.r_counters with
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
            match Hashtbl.find_opt acc.r_values site with
            | Some dst -> dst
            | None ->
                let dst = Hashtbl.create 8 in
                Hashtbl.replace acc.r_values site dst;
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
        r_n_samples = acc.r_n_samples + r.Vm.Machine.n_samples;
        r_cycles = Int64.add acc.r_cycles r.Vm.Machine.cycles;
        r_instrs = Int64.add acc.r_instrs r.Vm.Machine.instructions;
        r_imiss = Int64.add acc.r_imiss r.Vm.Machine.icache_misses;
        r_branches = Int64.add acc.r_branches r.Vm.Machine.taken_branches;
        r_counters = counters;
      })
    {
      r_n_samples = 0;
      r_cycles = 0L;
      r_instrs = 0L;
      r_imiss = 0L;
      r_branches = 0L;
      r_counters = None;
      r_values = Hashtbl.create 8;
    }
    specs

(* ------------------------------------------------------------------ *)
(* Staged build plans: the supported surface for running variants.     *)

module Plan = struct
  type compile_spec = { c_source : string; c_probes : bool }
  type instrument_spec = { i_counters : bool; i_values : bool }

  type profile_run_spec = {
    p_config : Opt.Config.t;
    p_emit : Cg.Emit.options;
    p_pmu : Vm.Machine.pmu option;
    p_entry : string;
    p_train : run_spec list;
  }

  type correlator =
    | Corr_lines
    | Corr_probes
    | Corr_ctx of { cc_missing_frames : bool; cc_trim_threshold : int64 }
    | Corr_counters of { cn_min_count : int64; cn_min_ratio : float }

  type correlate_spec = { x_correlator : correlator }
  type preinline_spec = { pi_config : Preinliner.config option }

  type rebuild_spec = {
    r_probes : bool;
    r_prepass : Opt.Config.t option;
    r_config : Opt.Config.t;
    r_emit : Cg.Emit.options;
  }

  type evaluate_spec = { e_entry : string; e_eval : run_spec list }

  type stale_spec = { st_source : string; st_probes : bool }
  type use_spec = { u_text : string; u_flat_text : string option }

  type stage =
    | Compile of compile_spec
    | Instrument of instrument_spec
    | Profile_run of profile_run_spec
    | Correlate of correlate_spec
    | Use_profile of use_spec
    | Stale_apply of stale_spec
    | Preinline of preinline_spec
    | Rebuild of rebuild_spec
    | Evaluate of evaluate_spec

  type t = {
    pl_variant : variant;
    pl_workload : workload;
    pl_options : options;
    pl_stages : stage list;
  }

  let make ?(options = default_options) ~variant (w : workload) =
    let compile ~probes = Compile { c_source = w.w_source; c_probes = probes } in
    let profile_run ~pmu =
      Profile_run
        {
          p_config = options.opt_profiling;
          p_emit = options.emit_opts;
          p_pmu = pmu;
          p_entry = w.w_entry;
          p_train = w.w_train;
        }
    in
    let rebuild ~probes ~prepass =
      Rebuild
        {
          r_probes = probes;
          r_prepass = prepass;
          r_config = Opt.Config.o2;
          r_emit = options.emit_opts;
        }
    in
    let evaluate = Evaluate { e_entry = w.w_entry; e_eval = w.w_eval } in
    let stages =
      match variant with
      | Nopgo ->
          [ rebuild ~probes:false ~prepass:(Some options.opt_profiling); evaluate ]
      | Autofdo ->
          [
            compile ~probes:false;
            profile_run ~pmu:(Some options.pmu);
            Correlate { x_correlator = Corr_lines };
            rebuild ~probes:false ~prepass:None;
            evaluate;
          ]
      | Csspgo_probe_only ->
          [
            compile ~probes:true;
            profile_run ~pmu:(Some options.pmu);
            Correlate { x_correlator = Corr_probes };
            rebuild ~probes:true ~prepass:None;
            evaluate;
          ]
      | Csspgo_full ->
          [
            compile ~probes:true;
            profile_run ~pmu:(Some options.pmu);
            Correlate
              {
                x_correlator =
                  Corr_ctx
                    {
                      cc_missing_frames = options.use_missing_frame_inference;
                      cc_trim_threshold = options.trim_threshold;
                    };
              };
            Preinline { pi_config = options.preinline };
            rebuild ~probes:true ~prepass:None;
            evaluate;
          ]
      | Instr_pgo ->
          [
            compile ~probes:false;
            Instrument { i_counters = true; i_values = true };
            profile_run ~pmu:None;
            Correlate
              {
                x_correlator =
                  Corr_counters { cn_min_count = 5000L; cn_min_ratio = 0.90 };
              };
            rebuild ~probes:false ~prepass:None;
            evaluate;
          ]
    in
    { pl_variant = variant; pl_workload = w; pl_options = options; pl_stages = stages }

  (* The stale-profile plan: profile build N (the workload source), then
     rebuild build N+1 ([stale_source]) against the matched profile. The
     matcher runs between correlation and pre-inlining so the pre-inliner
     decides on the trie the new build will actually replay. *)
  let make_stale ?(options = default_options) ~variant ~stale_source (w : workload) =
    (match variant with
    | Nopgo | Instr_pgo ->
        invalid_arg "Plan.make_stale: only sampling variants can go stale"
    | Autofdo | Csspgo_probe_only | Csspgo_full -> ());
    let base = make ~options ~variant w in
    let probes =
      match variant with Csspgo_probe_only | Csspgo_full -> true | _ -> false
    in
    let stages =
      List.concat_map
        (function
          | Correlate _ as st ->
              [ st; Stale_apply { st_source = stale_source; st_probes = probes } ]
          | st -> [ st ])
        base.pl_stages
    in
    { base with pl_stages = stages }

  (* Profile-injection plans: rebuild [w.w_source] against an externally
     produced (fleet-merged, train-carried) profile. The profile shape
     picks the variant so caching, annotation and quality accounting all
     behave exactly as the sampled equivalent would. *)
  let make_with_profile ?(options = default_options) ~profile ?flat (w : workload) =
    let kind = P.Text_io.kind_of profile in
    let variant =
      match kind with
      | P.Text_io.Line -> Autofdo
      | P.Text_io.Probe -> Csspgo_probe_only
      | P.Text_io.Ctx -> Csspgo_full
    in
    let probes = match kind with P.Text_io.Line -> false | _ -> true in
    let use =
      Use_profile
        {
          u_text = P.Text_io.to_string profile;
          u_flat_text =
            Option.map (fun f -> P.Text_io.to_string (P.Text_io.Probe_prof f)) flat;
        }
    in
    let rebuild =
      Rebuild
        {
          r_probes = probes;
          r_prepass = None;
          r_config = Opt.Config.o2;
          r_emit = options.emit_opts;
        }
    in
    let evaluate = Evaluate { e_entry = w.w_entry; e_eval = w.w_eval } in
    let stages =
      match kind with
      | P.Text_io.Ctx -> [ use; Preinline { pi_config = options.preinline }; rebuild; evaluate ]
      | _ -> [ use; rebuild; evaluate ]
    in
    { pl_variant = variant; pl_workload = w; pl_options = options; pl_stages = stages }

  type hooks = {
    memo :
      'a.
      kind:string ->
      key:string list ->
      ser:('a -> string) ->
      de:(string -> 'a) ->
      (unit -> 'a) ->
      'a;
    span : 'a. name:string -> (unit -> 'a) -> 'a;
    obs : Obs.Metrics.t;
    jobs : int;
  }

  let default_hooks =
    {
      memo = (fun ~kind:_ ~key:_ ~ser:_ ~de:_ f -> f ());
      span = (fun ~name:_ f -> f ());
      obs = Obs.Metrics.null;
      jobs = 1;
    }

  let stage_name = function
    | Compile _ -> "compile"
    | Instrument _ -> "instrument"
    | Profile_run _ -> "profile-run"
    | Correlate _ -> "correlate"
    | Use_profile _ -> "use-profile"
    | Stale_apply _ -> "stale-apply"
    | Preinline _ -> "preinline"
    | Rebuild _ -> "rebuild"
    | Evaluate _ -> "evaluate"

  (* Rough serialized-size estimates (one row per entry) of a sampled
     profile, shared by the Correlate and Use_profile stages. *)
  let flat_size sh ~per_count funcs =
    Ir.Guid.Tbl.fold
      (fun _ fe acc ->
        acc + 24
        + (per_count * Hashtbl.length (sh.P.Counts.counts fe))
        + (18 * Hashtbl.length (sh.P.Counts.calls fe)))
      funcs 0

  let sampled_size = function
    | P.Text_io.Line_prof lp ->
        flat_size P.Line_profile.shape ~per_count:12 lp.P.Line_profile.funcs
    | P.Text_io.Probe_prof pp ->
        flat_size P.Probe_profile.shape ~per_count:10 pp.P.Probe_profile.funcs
    | P.Text_io.Ctx_prof trie -> P.Ctx_profile.size_bytes trie

  (* Fingerprints for cache keys: FNV-1a over the Marshal image of a spec.
     Every spec type is a closure-free record, so this is total. *)
  let fp_string s = Printf.sprintf "%Lx" (Fnv.hash_string s)
  let fp v = fp_string (Marshal.to_string v [])
  let mser v = Marshal.to_string v []
  let mde s = Marshal.from_string s 0

  type instrumentation = { in_map : Instrument.t; in_vals : Instrument.values }

  (* The profiling run records every sample into a compact flat-int log;
     the Correlate stage runs the kernel on it afterwards. *)
  type profile_run_out = {
    pr_bin : Cg.Mach.binary;
    pr_log : Vm.Sample_log.t;
    pr_n_samples : int;
    pr_cycles : int64;
    pr_counters : int64 array option;
    pr_values : (int, (int64, int64) Hashtbl.t) Hashtbl.t;
    pr_instr : instrumentation option;
  }

  (* A sampled profile of any kind; a context trie carries its flat
     (context-merged) probe profile as the quality baseline. *)
  type profile_data =
    | Prof_sampled of { x_profile : P.Text_io.profile; x_flat : P.Probe_profile.t option }
    | Prof_counters of {
        x_counts : (Ir.Guid.t * Ir.Types.label, int64) Hashtbl.t;
        x_dominant : (Instrument.vsite_key, int64) Hashtbl.t;
      }

  let run ?(hooks = default_hooks) (plan : t) =
    (* Stage counters: warmth-independent, so they fire on cache hits too. *)
    let stat name n = Obs.Metrics.bump (Obs.Metrics.counter hooks.obs name) n in
    let w = plan.pl_workload in
    let src_fp = fp_string w.w_source in
    (* Reference program symbol names and pseudo-probe CFG checksums, shared
       by every correlator of this workload. Memoized under the source hash:
       identical sources across variants (and fuzz seeds) hit. *)
    let ref_info_cell = ref None in
    let ref_info () =
      match !ref_info_cell with
      | Some ri -> ri
      | None ->
          let ri =
            hooks.memo ~kind:"ref-info" ~key:[ src_fp ] ~ser:mser ~de:mde (fun () ->
                Correlate.symbols (reference w))
          in
          ref_info_cell := Some ri;
          ri
    in
    (* Probe/function checksums are first-class cache-key material: any CFG
       drift in the reference invalidates correlated profiles derived from
       it, so a stale cache degrades to recorrelation, never to wrong data. *)
    let checksum_digest () =
      let ri = ref_info () in
      Ir.Guid.Tbl.fold (fun g c acc -> (g, c) :: acc) ri.Correlate.checksums []
      |> List.sort compare
      |> List.fold_left (fun acc (g, c) -> Fnv.int64 (Fnv.int64 acc g) c) Fnv.init
      |> Printf.sprintf "%Lx"
    in
    let compile_spec = ref None in
    let instr_spec = ref None in
    let prof = ref None in
    let prof_key = ref [] in
    let profile = ref None in
    let profile_size = ref 0 in
    let recon = ref None in
    let decisions = ref [] in
    let stales = ref [] in
    (* Source the final build compiles; Stale_apply retargets it at the
       drifted "version N+1" while the profile stays from version N. *)
    let rebuild_source = ref w.w_source in
    let stale_report = ref None in
    let annotated = ref None in
    let final = ref None in
    let final_key = ref [] in
    let eval_out = ref None in
    let exec = function
      | Compile cs -> compile_spec := Some cs
      | Instrument is -> instr_spec := Some is
      | Profile_run ps ->
          (* "stream-v6": [profile_run_out] changed shape (aggregates + log
             instead of a sample list in v2, int-table range counts in v3,
             the log alone in v4, in v5 a log made of record windows onto
             fixed-capacity blocks instead of one flat arena, and in v6 a
             [pr_bin] without its address hash table); the version element
             keeps stale marshaled cache entries from being unsafely
             decoded. *)
          let key = [ "stream-v6"; src_fp; fp !compile_spec; fp !instr_spec; fp ps ] in
          prof_key := key;
          let out =
            hooks.memo ~kind:"profile-run" ~key ~ser:mser ~de:mde (fun () ->
                let cs =
                  match !compile_spec with
                  | Some cs -> cs
                  | None -> invalid_arg "Plan.run: Profile_run before Compile"
                in
                let prog = Frontend.Lower.compile cs.c_source in
                if cs.c_probes then Pseudo_probe.insert prog;
                let instr =
                  match !instr_spec with
                  | None -> None
                  | Some is ->
                      let im =
                        if is.i_counters then Instrument.instrument prog
                        else { Instrument.counter_of = Hashtbl.create 1; n_counters = 0 }
                      in
                      let vals =
                        if is.i_values then Instrument.instrument_values prog
                        else { Instrument.site_of = Hashtbl.create 1; n_sites = 0 }
                      in
                      Some { in_map = im; in_vals = vals }
                in
                Opt.Pass.optimize ~config:ps.p_config prog;
                let bin = Cg.Emit.emit ~options:ps.p_emit prog in
                let log = Vm.Sample_log.create () in
                let r =
                  run_specs ~pmu:ps.p_pmu ~sink:(Vm.Sample_log.sink log) ~obs:hooks.obs bin
                    ~entry:ps.p_entry ps.p_train
                in
                Vm.Sample_log.compact log;
                {
                  pr_bin = bin;
                  pr_log = log;
                  pr_n_samples = r.r_n_samples;
                  pr_cycles = r.r_cycles;
                  pr_counters = r.r_counters;
                  pr_values = r.r_values;
                  pr_instr = instr;
                })
          in
          stat "plan.profile-run.samples" out.pr_n_samples;
          stat "plan.profile-run.log-words" (Vm.Sample_log.words out.pr_log);
          prof := Some out
      | Correlate { x_correlator } ->
          let po =
            match !prof with
            | Some po -> po
            | None -> invalid_arg "Plan.run: Correlate before Profile_run"
          in
          (* The kernel's view of the profiled binary (dense index plus
             reference symbols); built once per Correlate stage, shared by
             every consumer below. *)
          let target = lazy (Correlate.target (ref_info ()) po.pr_bin) in
          (* Every sampled profile is one kernel run on the recorded log.
             The result is byte-identical at any [hooks.jobs], so no memo
             key below includes the job count. *)
          let kernel ?(missing_frames = false) ?(trim = 0L) shape =
            Correlate.run ~obs:hooks.obs ~jobs:hooks.jobs ~missing_frames ~trim shape
              (Lazy.force target) (Correlate.Log po.pr_log)
          in
          (* Correlated profiles memoize as values and serialize as
             canonical Text_io dumps. A hook may call [ser] long after this
             stage, so the stages below never mutate a memoized value: the
             context trie they prune and mark is the Driver's own copy. *)
          let memo_profile shape f =
            let tag, kind =
              match shape with
              | Correlate.Lines -> ("lines", P.Text_io.Line)
              | _ -> ("probes", P.Text_io.Probe)
            in
            hooks.memo ~kind:"correlate"
              ~key:(!prof_key @ [ tag; checksum_digest () ])
              ~ser:P.Text_io.to_string ~de:(P.Text_io.read kind) f
          in
          (* The serialized size, for [plan.correlate.profile-bytes]: only a
             live registry records it, so only then is the text rendered. *)
          let text_bytes p () = String.length (P.Text_io.to_string p) in
          let bytes =
            match x_correlator with
            | Corr_lines | Corr_probes ->
                let shape =
                  if x_correlator = Corr_lines then Correlate.Lines else Correlate.Probes
                in
                let p = memo_profile shape (fun () -> (kernel shape).Correlate.profile) in
                profile := Some (Prof_sampled { x_profile = p; x_flat = None });
                profile_size := sampled_size p;
                text_bytes p
            | Corr_ctx { cc_missing_frames; cc_trim_threshold } ->
                (* One kernel run gives the trie and its flat baseline. *)
                let ctx =
                  lazy
                    (kernel ~missing_frames:cc_missing_frames ~trim:cc_trim_threshold
                       Correlate.Ctx)
                in
                let p, stats =
                  hooks.memo ~kind:"correlate"
                    ~key:
                      (!prof_key
                      @ [ "ctx"; fp (cc_missing_frames, cc_trim_threshold); checksum_digest () ])
                    ~ser:(fun (p, stats) -> mser (P.Text_io.to_string p, stats))
                    ~de:(fun s ->
                      let text, stats = mde s in
                      (P.Text_io.read P.Text_io.Ctx text, stats))
                    (fun () ->
                      let r = Lazy.force ctx in
                      (r.Correlate.profile, r.Correlate.stats))
                in
                let trie =
                  match p with
                  | P.Text_io.Ctx_prof trie -> P.Ctx_profile.copy trie
                  | _ -> assert false
                in
                (* The probe-level (context-merged) correlation is the flat
                   quality baseline: the trie's kernel run gives it, unless
                   the trie came from a cache. *)
                let flat () =
                  let from_ctx =
                    if Lazy.is_val ctx then (Lazy.force ctx).Correlate.flat else None
                  in
                  match from_ctx with
                  | Some flat -> P.Text_io.Probe_prof (Lazy.force flat)
                  | None -> (kernel Correlate.Probes).Correlate.profile
                in
                let flat =
                  match memo_profile Correlate.Probes flat with
                  | P.Text_io.Probe_prof pp -> pp
                  | _ -> assert false
                in
                (* Reconstruction stats are counted even on cache hits —
                   they are part of the memoized value, so the numbers a
                   warm run reports match the cold run that built it. *)
                stat "plan.correlate.recon-samples" stats.Ctx_reconstruct.st_samples;
                stat "plan.correlate.recon-dropped"
                  stats.Ctx_reconstruct.st_dropped_misaligned;
                stat "plan.correlate.gaps-resolved" stats.Ctx_reconstruct.st_gaps_resolved;
                stat "plan.correlate.gaps-failed" stats.Ctx_reconstruct.st_gaps_failed;
                recon := Some stats;
                profile :=
                  Some (Prof_sampled { x_profile = P.Text_io.Ctx_prof trie; x_flat = Some flat });
                text_bytes p
            | Corr_counters { cn_min_count; cn_min_ratio } ->
                let inst =
                  match po.pr_instr with
                  | Some i -> i
                  | None -> invalid_arg "Plan.run: Corr_counters without Instrument"
                in
                let v =
                  hooks.memo ~kind:"correlate"
                    ~key:(!prof_key @ [ "counters"; fp (cn_min_count, cn_min_ratio) ])
                    ~ser:mser ~de:mde
                    (fun () ->
                      let counts =
                        Instrument.block_counts inst.in_map
                          (Option.value po.pr_counters
                             ~default:(Array.make inst.in_map.Instrument.n_counters 0L))
                      in
                      let dominant =
                        Instrument.dominant_values inst.in_vals po.pr_values
                          ~min_count:cn_min_count ~min_ratio:cn_min_ratio
                      in
                      (counts, dominant))
                in
                let counts, dominant = v in
                profile := Some (Prof_counters { x_counts = counts; x_dominant = dominant });
                profile_size := 8 * inst.in_map.Instrument.n_counters;
                fun () -> String.length (mser v)
          in
          if Obs.Metrics.enabled hooks.obs then
            stat "plan.correlate.profile-bytes" (bytes ())
      | Use_profile us ->
          (* Adopt an externally merged profile as this plan's correlated
             profile. The text is already canonical, so its length is the
             serialized size. *)
          let p = P.Text_io.of_string us.u_text in
          let flat =
            match p with
            | P.Text_io.Ctx_prof trie -> (
                match us.u_flat_text with
                | Some t -> (
                    match P.Text_io.read P.Text_io.Probe t with
                    | P.Text_io.Probe_prof pp -> Some pp
                    | _ -> assert false)
                | None -> Some (P.Merge.flatten_ctx trie))
            | P.Text_io.Line_prof _ | P.Text_io.Probe_prof _ -> None
          in
          profile := Some (Prof_sampled { x_profile = p; x_flat = flat });
          profile_size := sampled_size p;
          stat "plan.correlate.profile-bytes" (String.length us.u_text)
      | Stale_apply ss ->
          (* The match target is the *pre-optimization* IR of the new build,
             probed for the probe variants so checksums and callsite ids
             exist to anchor on. *)
          let target = Frontend.Lower.compile ss.st_source in
          if ss.st_probes then Pseudo_probe.insert target;
          let rep =
            match !profile with
            | Some (Prof_sampled { x_profile; x_flat }) ->
                (* The flat quality baseline must survive the same drift. *)
                let (p, flat), rep =
                  Stale_match.route ~obs:hooks.obs ~target (x_profile, x_flat)
                in
                profile := Some (Prof_sampled { x_profile = p; x_flat = flat });
                rep
            | Some (Prof_counters _) | None ->
                invalid_arg "Plan.run: Stale_apply requires a correlated sampling profile"
          in
          stale_report := Some rep;
          rebuild_source := ss.st_source;
          stat "plan.stale.counts-recovered" (Int64.to_int rep.Stale_match.r_recovered);
          stat "plan.stale.counts-dropped" (Int64.to_int rep.Stale_match.r_dropped_counts)
      | Preinline { pi_config } -> (
          match !profile with
          | Some (Prof_sampled { x_profile = P.Text_io.Ctx_prof x_trie; _ }) ->
              (match pi_config with
              | Some cfg ->
                  let sizes =
                    match !prof with
                    | Some po -> Size_extract.compute po.pr_bin
                    | None ->
                        (* Injected-profile plan (Use_profile): no profiling
                           binary in this plan. Rebuild the probed
                           profiling-shape binary of the rebuild source —
                           the shape fleet instances were sampling — for
                           the inline cost extraction. *)
                        hooks.memo ~kind:"preinline-sizes"
                          ~key:
                            [
                              fp_string !rebuild_source;
                              fp (plan.pl_options.opt_profiling, plan.pl_options.emit_opts);
                            ]
                          ~ser:mser ~de:mde
                          (fun () ->
                            let prog = Frontend.Lower.compile !rebuild_source in
                            Pseudo_probe.insert prog;
                            Opt.Pass.optimize ~config:plan.pl_options.opt_profiling prog;
                            Size_extract.compute
                              (Cg.Emit.emit ~options:plan.pl_options.emit_opts prog))
                  in
                  decisions := Preinliner.run ~config:cfg x_trie sizes
              | None ->
                  (* Without the pre-inliner every context merges into base. *)
                  ignore (P.Ctx_profile.trim_cold x_trie ~threshold:Int64.max_int);
                  decisions := []);
              profile_size := P.Ctx_profile.size_bytes x_trie
          | _ -> () (* no context trie: nothing to pre-inline *))
      | Rebuild rs ->
          let prog = Frontend.Lower.compile !rebuild_source in
          if rs.r_probes then Pseudo_probe.insert prog;
          (match rs.r_prepass with
          | Some config -> Opt.Pass.optimize ~config prog
          | None -> ());
          (match !profile with
          | None -> ()
          | Some (Prof_sampled { x_profile = P.Text_io.Line_prof lp; _ }) ->
              Annotate.lines lp prog
          | Some (Prof_sampled { x_profile = P.Text_io.Probe_prof pp; _ }) ->
              stales := Annotate.probes pp prog
          | Some (Prof_sampled { x_profile = P.Text_io.Ctx_prof trie; _ }) ->
              stales := Annotate.ctx trie prog
          | Some (Prof_counters { x_counts; x_dominant }) ->
              Annotate.exact x_counts prog;
              (* Value-profile-guided divisor specialization:
                 instrumentation-only. *)
              ignore (Value_spec.apply prog x_dominant));
          (* The annotated pre-opt IR doubles as the quality oracle. For
             context profiles it must share the truth CFG, so it cannot be
             the replayed (inlined) IR: annotate a fresh copy with the flat
             (context-merged) probe profile from the same samples — the same
             correlation mechanism Table I's "CSSPGO" row measures. *)
          (match !profile with
          | Some (Prof_sampled { x_flat = Some x_flat; _ }) ->
              let qp = Frontend.Lower.compile !rebuild_source in
              Pseudo_probe.insert qp;
              ignore (Annotate.probes x_flat qp);
              annotated := Some qp
          | _ -> annotated := Some (Ir.Program.copy prog));
          (* Key the whole-binary cache on the merged per-function profile
             fingerprint where one exists: equal fingerprints mean no
             function drifted, so a rebuild against a refreshed-but-equal
             profile reuses the cached artifact outright (0 recompiles).
             Exact counter profiles keep the raw text hash. *)
          let profile_fp =
            match !profile with
            | Some (Prof_sampled { x_profile; _ }) ->
                Printf.sprintf "pfp:%Lx" (P.Fingerprint.merged x_profile)
            | Some (Prof_counters { x_counts; x_dominant }) -> fp (x_counts, x_dominant)
            | None -> fp_string ""
          in
          (* "bin-v2" tags the marshaled [Mach.binary]'s layout (v1 still
             carried an address hash table): an entry of another layout
             misses instead of decoding into this one. *)
          let key = [ "bin-v2"; fp_string !rebuild_source; fp rs; profile_fp ] in
          final_key := key;
          let bin =
            hooks.memo ~kind:"final-build" ~key ~ser:mser ~de:mde (fun () ->
                (* The whole-binary entry missed: the profile (or source)
                   drifted. Run the program-level pipeline prefix, then
                   recompile per function through a second-level cache
                   keyed on each function's post-inline annotated image —
                   functions the drift did not reach digest identically
                   and splice their cached optimized bodies back in. *)
                let config = rs.r_config in
                if Opt.Pass.prepare ~config prog then begin
                  let steps = Opt.Pass.steps_of_config config in
                  let pipeline_fp = fp (config, steps) in
                  let recompiled = ref 0 and reused = ref 0 in
                  Ir.Program.iter_funcs
                    (fun f ->
                      let fkey =
                        [
                          "fv1";
                          pipeline_fp;
                          Printf.sprintf "%Lx" f.Ir.Func.guid;
                          Printf.sprintf "%Lx" (Ir.Func.digest f);
                        ]
                      in
                      let fresh = ref false in
                      let f' =
                        hooks.memo ~kind:"func-opt" ~key:fkey ~ser:mser ~de:mde
                          (fun () ->
                            fresh := true;
                            Opt.Pass.optimize_func_with ~config ~steps ~program:prog f;
                            f)
                      in
                      if !fresh then incr recompiled
                      else begin
                        incr reused;
                        Ir.Program.add_func prog f'
                      end)
                    prog;
                  stat "plan.rebuild.funcs-recompiled" !recompiled;
                  stat "plan.rebuild.funcs-reused" !reused;
                  if config.Opt.Config.verify_between_passes then begin
                    match Ir.Verify.program prog with
                    | [] -> ()
                    | errs ->
                        failwith
                          (Format.asprintf "@[<v>after incremental pipeline:@ %a@]"
                             (Format.pp_print_list Ir.Verify.pp_error)
                             errs)
                  end
                end;
                Cg.Emit.emit ~options:rs.r_emit prog)
          in
          final := Some bin
      | Evaluate es ->
          let bin =
            match !final with
            | Some bin -> bin
            | None -> invalid_arg "Plan.run: Evaluate before Rebuild"
          in
          let ev =
            hooks.memo ~kind:"evaluate" ~key:(!final_key @ [ fp es ]) ~ser:mser ~de:mde
              (fun () ->
                let r =
                  run_specs ~pmu:None ~obs:hooks.obs bin ~entry:es.e_entry es.e_eval
                in
                {
                  ev_cycles = r.r_cycles;
                  ev_instructions = r.r_instrs;
                  ev_icache_misses = r.r_imiss;
                  ev_taken_branches = r.r_branches;
                })
          in
          eval_out := Some ev
    in
    List.iter
      (fun st -> hooks.span ~name:(stage_name st) (fun () -> exec st))
      plan.pl_stages;
    match (!final, !eval_out, !annotated) with
    | Some bin, Some ev, Some ann ->
        {
          o_variant = plan.pl_variant;
          o_eval = ev;
          o_text_size = bin.Cg.Mach.text_size;
          o_debug_size = bin.Cg.Mach.debug_size;
          o_probe_meta_size = bin.Cg.Mach.probe_meta_size;
          o_profiling_cycles = (match !prof with Some po -> po.pr_cycles | None -> 0L);
          o_annotated = ann;
          o_stales = !stales;
          o_recon_stats = !recon;
          o_preinline_decisions = !decisions;
          o_binary = bin;
          o_profile_size = !profile_size;
          o_stale_report = !stale_report;
        }
    | _ -> invalid_arg "Plan.run: plan must end with Rebuild and Evaluate stages"
end

let run_variant ?options variant (w : workload) =
  Plan.run (Plan.make ?options ~variant w)
