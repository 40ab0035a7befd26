(** The CSSPGO driver: end-to-end build → profile → re-build pipelines for
    every PGO variant evaluated in the paper (§IV).

    All sampling variants share one profiling setup — a statically optimized
    (-O2, no profile) build, sampled with the synchronized LBR + stack PMU —
    differing only in whether pseudo-probes are present and how the samples
    are correlated. Instrumentation PGO builds a counter-instrumented binary
    whose (slow) training run yields exact block counts. *)

type run_spec = {
  rs_args : int64 list;
  rs_globals : (string * int64 array) list;
}

type workload = {
  w_name : string;
  w_source : string;  (** MiniC *)
  w_entry : string;
  w_train : run_spec list;
  w_eval : run_spec list;
}

type variant =
  | Nopgo
  | Instr_pgo
  | Autofdo
  | Csspgo_probe_only
  | Csspgo_full

val variant_name : variant -> string

type options = {
  pmu : Csspgo_vm.Machine.pmu;
  opt_profiling : Csspgo_opt.Config.t;  (** pipeline for profiling builds *)
  emit_opts : Csspgo_codegen.Emit.options;
  trim_threshold : int64;               (** cold-context trimming (0 = off) *)
  preinline : Preinliner.config option; (** [None] disables the pre-inliner *)
  use_missing_frame_inference : bool;
}

val default_options : options

type eval = {
  ev_cycles : int64;
  ev_instructions : int64;
  ev_icache_misses : int64;
  ev_taken_branches : int64;
}

type outcome = {
  o_variant : variant;
  o_eval : eval;                       (** optimized binary on eval inputs *)
  o_text_size : int;
  o_debug_size : int;
  o_probe_meta_size : int;
  o_profiling_cycles : int64;          (** cost of the training run(s) *)
  o_annotated : Csspgo_ir.Program.t;   (** annotated pre-opt IR (for quality) *)
  o_stales : Annotate.stale list;
  o_recon_stats : Ctx_reconstruct.stats option;  (** full CSSPGO only *)
  o_preinline_decisions : Preinliner.decision list;
  o_binary : Csspgo_codegen.Mach.binary;
  o_profile_size : int;                (** serialized profile estimate, bytes *)
  o_stale_report : Stale_match.report option;
      (** present iff the plan ran a [Stale_apply] stage *)
}

(** {1 Staged build plans}

    The supported public surface for running variants. A plan is an explicit
    list of pipeline stages — each a record with named fields describing its
    declared inputs — built by {!Plan.make} and interpreted by {!Plan.run}.
    The orchestrator ([Csspgo_orchestrator]) schedules independent plans
    across domains and threads an artifact cache through {!Plan.hooks}. *)

module Plan : sig
  type compile_spec = {
    c_source : string;  (** MiniC source to lower *)
    c_probes : bool;    (** insert pseudo-probes after lowering *)
  }

  type instrument_spec = {
    i_counters : bool;  (** per-block counter increments (instr-PGO) *)
    i_values : bool;    (** divisor value-capture probes *)
  }

  type profile_run_spec = {
    p_config : Csspgo_opt.Config.t;       (** pipeline for the profiling build *)
    p_emit : Csspgo_codegen.Emit.options;
    p_pmu : Csspgo_vm.Machine.pmu option; (** [None] = no sampling (instr-PGO) *)
    p_entry : string;
    p_train : run_spec list;
  }

  (** How raw profiling output becomes an annotatable profile. *)
  type correlator =
    | Corr_lines      (** DWARF line correlation (AutoFDO) *)
    | Corr_probes     (** pseudo-probe correlation, contexts merged *)
    | Corr_ctx of { cc_missing_frames : bool; cc_trim_threshold : int64 }
        (** context-trie reconstruction (full CSSPGO) *)
    | Corr_counters of { cn_min_count : int64; cn_min_ratio : float }
        (** exact block counts + dominant divisor values (instr-PGO) *)

  type correlate_spec = { x_correlator : correlator }

  type preinline_spec = { pi_config : Preinliner.config option }
  (** [None] merges every context into base (pre-inliner disabled). *)

  type rebuild_spec = {
    r_probes : bool;
    r_prepass : Csspgo_opt.Config.t option;
        (** statically optimize before annotation (the no-PGO baseline) *)
    r_config : Csspgo_opt.Config.t;       (** final pipeline, {!Csspgo_opt.Config.o2} *)
    r_emit : Csspgo_codegen.Emit.options;
  }

  type evaluate_spec = { e_entry : string; e_eval : run_spec list }

  type stale_spec = {
    st_source : string;
        (** the drifted "version N+1" MiniC source; also replaces the plan's
            workload source for the final [Rebuild] *)
    st_probes : bool;  (** insert pseudo-probes into the match target *)
  }
  (** Stale-profile matching stage: the profile correlated so far (from the
      {e old} source) is re-anchored onto the pre-opt IR of [st_source] via
      {!Stale_match}, and the final build compiles [st_source]. *)

  type use_spec = {
    u_text : string;
        (** canonical {!Csspgo_profile.Text_io} text of the injected
            profile (any sampling shape) *)
    u_flat_text : string option;
        (** for context profiles: the flat (context-merged) probe profile
            used as the quality baseline; when [None] the trie is
            flattened via {!Csspgo_profile.Merge.flatten_ctx} *)
  }
  (** Profile-injection stage: adopt an externally produced profile —
      merged across a fleet, carried over a release train — as if a
      [Correlate] stage had just built it. Replaces the
      [Compile; Profile_run; Correlate] prefix. *)

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

  val make : ?options:options -> variant:variant -> workload -> t
  (** The staged equivalent of the old monolithic [run_variant] recipes:
      every variant becomes an explicit stage list ending in
      [Rebuild; Evaluate]. *)

  val make_stale :
    ?options:options -> variant:variant -> stale_source:string -> workload -> t
  (** {!make}, with a [Stale_apply stale_source] stage inserted directly
      after [Correlate] — profile on [w.w_source], match against and rebuild
      [stale_source]. Only meaningful for sampling variants; raises
      [Invalid_argument] for [Nopgo] / [Instr_pgo]. *)

  val make_with_profile :
    ?options:options ->
    profile:Csspgo_profile.Text_io.profile ->
    ?flat:Csspgo_profile.Probe_profile.t ->
    workload ->
    t
  (** A plan that injects [profile] instead of collecting one:
      [Use_profile; (Preinline for context shapes); Rebuild; Evaluate]
      against [w.w_source]. The variant is implied by the profile's kind
      (line → [Autofdo], probe → [Csspgo_probe_only], ctx →
      [Csspgo_full]); [flat] is the context shape's quality baseline. The
      fleet release train rebuilds every generation through this. *)

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
    obs : Csspgo_obs.Metrics.t;
    jobs : int;
  }
  (** [memo] is the memoization hook threaded through {!run}. [kind] names
      the stage family (["ref-info"], ["profile-run"], ["correlate"],
      ["final-build"], ["evaluate"]); [key] is the content-addressed cache
      key (source hash, spec fingerprints, probe/function checksum digest);
      [ser]/[de] convert the stage value to/from bytes (profiles serialize
      as canonical {!Csspgo_profile.Text_io} text). A hook must either
      return the thunk's result or a deserialized value from a previous
      identical call. A hook may call [ser] at any later time, even after
      {!run} has returned: the Driver never mutates a value after [memo]
      returns it (a context trie is copied before the later stages prune
      and mark it), and it renders nothing that only [ser] needs.

      [span] wraps the execution of each stage; [name] is {!stage_name} of
      the stage. Hooks may open a trace span there — the default runs the
      thunk untouched.

      [obs] is the plan's telemetry handle. The stage counters land there
      under a [plan.] prefix, fired on cache hits too:
      ["plan.profile-run.samples"], ["plan.profile-run.log-words"],
      ["plan.correlate.profile-bytes"], ["plan.correlate.recon-samples"],
      ["plan.correlate.recon-dropped"], ["plan.correlate.gaps-resolved"],
      ["plan.correlate.gaps-failed"], ["plan.stale.counts-recovered"],
      ["plan.stale.counts-dropped"], ["plan.rebuild.funcs-recompiled"] and
      ["plan.rebuild.funcs-reused"]. [plan.correlate.profile-bytes] is the
      length of the correlated profile's canonical text (a counter
      profile's marshaled image), which the Driver renders only for an
      enabled registry. It is also handed to the VM and the
      correlation kernel for their hot-path instruments ([vm.*],
      [probe-corr.*], [dwarf-corr.*], [ctx.*], [missing-frame.*]) and
      shard counters ([parcorr.*], [sched.*]). {!Csspgo_obs.Metrics.null}
      disables all of them. Memoized stages skip their thunk on a cache
      hit, so those instrument counts depend on cache warmth; only the
      [plan.*] counters are warmth-independent.

      [jobs] is the [Correlate] stage's parallelism, handed to the
      correlation kernel ({!Correlate.run}, clamped to the core count): at
      1 the log replays as one shard, above it as chunk shards on up to
      [jobs] domains. The result is byte-identical at any [jobs], which is
      why [jobs] is {e not} part of any memo key: a cache entry written at
      one job count is valid at every other. *)

  val default_hooks : hooks
  (** Runs every thunk directly — no caching; null registry; [jobs = 1]
      (serial stages). *)

  val stage_name : stage -> string
  (** Stable lower-case stage label: ["compile"], ["instrument"],
      ["profile-run"], ["correlate"], ["use-profile"], ["stale-apply"],
      ["preinline"], ["rebuild"], ["evaluate"]. Used as span names and in
      reports. *)

  val run : ?hooks:hooks -> t -> outcome
  (** Interpret the stages in order. Raises [Invalid_argument] on malformed
      plans (e.g. [Profile_run] before [Compile], or a missing [Rebuild] /
      [Evaluate] tail). Deterministic: equal plans produce byte-identical
      binaries and profiles. *)
end

val run_variant : ?options:options -> variant -> workload -> outcome
(** Thin wrapper: [Plan.run (Plan.make ?options ~variant w)]. *)
