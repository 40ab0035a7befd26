(** Differential fuzzing campaign runner.

    Each seed deterministically yields one random MiniC program
    ([Workloads.Gen]), one -O0 reference build, [cf_plans_per_seed]
    randomly permuted pass pipelines, and all five [Core.Driver] PGO
    variants. Ten oracles, run by the nine entries of {!families} (named
    in brackets; [cf_skip] and the CLI's [--skip NAME] leave one out),
    guard the paper's central claim — that probes, context-sensitive
    profiles and aggressive optimization never perturb semantics or
    profile quality:

    - {b result equality} [plans], [variants]: every build computes the
      reference result;
    - {b IR well-formedness} [plans]: [Ir.Verify] is re-run after every
      pass of every permuted pipeline;
    - {b profile quality} [variants]: [Core.Quality.block_overlap] of the
      probe profile against the instrumentation ground truth stays above
      [cf_quality_floor] (skipped for nearly-unexecuted programs);
    - {b Driver-vs-fleet identity} [stream]: every profile the Driver's
      [Correlate] stage produces (the line profile, the context trie and
      its flat baseline, for AutoFDO and full CSSPGO) equals, as canonical
      text, [Fleet.Build.correlate] on the training runs recorded with
      [Fleet.Build.record] on [Fleet.Build.profiling_build]. Both run the
      one kernel ([Core.Correlate]), so this guards the Driver's own
      profiling build against the fleet's;
    - {b stale matching} [stale]: the source is drifted with a seeded edit script
      ([Workloads.Drift], seed derived from the campaign seed) and each
      sampling variant stale-matches its build-N profile onto version N+1
      ([Core.Stale_match]) — matching must never crash, the stale-built
      binary must compute the drifted program's own -O0 result, and the
      probe matcher's count recovery must never fall below the DWARF
      matcher's. Failure sites carry the edit-script seed and length, so
      every counterexample replays from the CLI in one command;
    - {b profile formats} [format]: every pipeline profile dump survives
      text → binary → text byte-identically, sample logs round-trip
      through both forms, and cache-warm rebuilds reproduce clean builds;
    - {b fleet merging} [fleet]: a sharded multi-instance fleet at full duty
      reproduces the single-instance profile byte-for-byte, draining is
      job-count independent, and [Profile.Merge] satisfies its algebraic
      laws on real correlated profiles from two drifted binary versions;
    - {b parallel correlation} [parcorr]: the correlation kernel over the chunk-split
      sample log's shards ([Fleet.Build.correlate_chunks]) is
      byte-identical to its one-shard run ([Fleet.Build.correlate]), for
      every profile shape and at several job counts, with a shard target
      small enough to force real multi-shard merges;
    - {b health telemetry} [health]: a health-instrumented fleet window
      ([Obs.Series] / [Obs.Health], fresh registry, fixed clock) closes to
      byte-identical canonical report and series JSON at -j 1 and -j 2,
      both documents reparse as print/parse fixed points of the strict
      [Obs.Json] parser, [Obs.Series.merge] satisfies its laws
      (commutative, associative, identity-on-empty) on really-recorded
      windows, and the OpenMetrics exposition ([Obs.Export]) renders with
      its [# EOF] trailer;
    - {b request labels} [labels]: the training stream is re-served under two
      alternating synthetic tenant labels and the slice-then-merge
      identity must hold — [Fleet.Build.correlate_labeled]'s blend is
      byte-identical to the unlabeled serial correlator per profile shape
      and job count, slice weights equal the observed per-label sample
      counts, labeled CSLG v3 blobs are encode/decode fixed points,
      label-free logs decode as the single implicit slice, and forcing v3
      framing on an unlabeled log downgrades losslessly to the plain v2
      bytes.

    The [stream], [format], [parcorr] and [labels] families share one
    per-seed fixture of fleet-road inputs, each built on first use: the
    plain and the probed profiling build
    ({!Csspgo_fleet.Build.profiling_build} reads the shape only to decide
    on probes, so Probes and Ctx share one binary), each build's training
    runs recorded plain and under two alternating tenant labels, and one
    serial {!Csspgo_fleet.Build.correlate} of the plain log per shape.
    That is 2 builds, 4 recordings and 3 serial correlations per seed,
    where the four families used to make 12, 12 and 10. The side each
    family checks against it (the Driver's memo texts, the binary round
    trip, the chunked correlation, the label-sliced blend) stays its own
    computation.

    Programs that exhaust the reference fuel budget are discards, not
    passes — campaign statistics report them separately so a campaign
    cannot silently become vacuous. Failures are shrunk with [Reduce] and
    written to a corpus directory. *)

type plan = {
  pl_steps : Csspgo_opt.Pass.step list;  (** permuted post-inline pipeline *)
  pl_probes : bool;
  pl_instrument : bool;
  pl_inline : bool;
  pl_probes_strong : bool;
  pl_layout : [ `Ext_tsp | `Hot_path ];
}

val sample_plan : Csspgo_support.Rng.t -> plan

type failure_kind = Result_mismatch | Verify_error | Quality_low | Crash

val kind_name : failure_kind -> string

type site =
  | Reference                        (** the -O0 baseline itself broke *)
  | Plan of plan
  | Variant of Csspgo_core.Driver.variant
  | Quality
  | Stream of Csspgo_core.Driver.variant
      (** Driver-vs-fleet profile byte-identity ([Correlate] stage
          against {!Csspgo_fleet.Build.correlate}) *)
  | Stale of {
      sl_variant : Csspgo_core.Driver.variant option;
          (** [None] for the probe-vs-DWARF recovery comparison *)
      sl_drift_seed : int64;  (** the edit-script seed ([Workloads.Drift]) *)
      sl_edits : int;
    }  (** stale-profile matching against a drifted source *)
  | Format of string
      (** binary/text profile format oracle family ([Profile.Binary_io],
          [Vm.Sample_log], incremental-vs-clean rebuilds); the string
          names the failing leg *)
  | Fleet of string
      (** fleet merge oracle family ([Fleet.Sim], [Profile.Merge]): merge
          laws on real correlated profiles, sharded-fleet-vs-single-instance
          byte identity, jobs-independent drain; the string names the
          failing leg *)
  | Parcorr of string
      (** parallel-correlation oracle family ([Core.Correlate] via
          [Fleet.Build.correlate_chunks]): many-shard vs one-shard byte
          identity per profile shape; the string names the shape *)
  | Health of string
      (** health telemetry oracle family ([Obs.Series], [Obs.Health],
          [Obs.Export]): jobs-independent report/series byte identity,
          print/parse fixed points, series merge laws, OpenMetrics
          trailer; the string names the failing leg *)
  | Labels of string
      (** request-label oracle family ([Vm.Sample_log] labels,
          [Fleet.Build.correlate_labeled], [Profile.Labels]):
          slice-then-merge byte identity per shape and job count, implicit
          single slice for label-free logs, lossless v3 → v2 downgrade;
          the string names the shape or failing leg *)

val site_to_string : site -> string

type failure = {
  fl_seed : int64;
  fl_kind : failure_kind;
  fl_site : site;
  fl_detail : string;
  fl_source : string;               (** original generated program *)
  fl_minimized : string option;     (** delta-debugged reproducer *)
}

type config = {
  cf_plans_per_seed : int;
  cf_n_funcs : int;
  cf_size : int;
  cf_quality_floor : float;
  cf_minimize : bool;
  cf_max_failures : int option;  (** stop the campaign after this many *)
  cf_skip : string list;
      (** names of the {!families} not to run; {!run} rejects any other
          name *)
  cf_stale_edits : int;  (** drift edit-script length for [stale] *)
  cf_inject : (string * (Csspgo_ir.Func.t -> unit)) option;
}

val default_config : config

val driver_options : Csspgo_core.Driver.options
(** The options every Driver plan and fleet road of the campaign runs
    under: the Driver's defaults with a dense sampling period (101), so
    the tiny generated programs still record samples. *)

val planted_bug : string * (Csspgo_ir.Func.t -> unit)
(** A deliberately broken pass (conditional guards dropped, false edge
    always taken) used to prove the harness detects and minimizes planted
    miscompiles. Wire it in via [cf_inject]. *)

type env
(** What every family sees of one seed: the config, seed, source, its
    arguments and driver workload, the -O0 result, the fleet-road
    fixture, the artifact cache and its plan hooks, and the quality
    oracle's overlap callback. *)

type family = {
  fam_name : string;  (** the [cf_skip] / [--skip] name *)
  fam_owns : site -> bool;  (** the failure sites this family reports *)
  fam_check : env -> site option -> unit;
      (** run the family, raising on the first failure; [Some site] is the
          minimizer's focused replay of one owned site ([plans],
          [variants] and [stream] rerun only the failing plan, variant or
          quality pair; the others rerun whole) *)
}

val families : family list
(** In run order: [plans], [variants] (with the quality oracle, which
    reads their outcomes), [stream], [stale], [format], [fleet],
    [parcorr], [health], [labels]. *)

val family_of : site -> family option
(** The family that owns a site; [None] for [Reference]. *)

type stats = {
  mutable st_runs : int;
  mutable st_discards : int;
  mutable st_mismatches : int;
  mutable st_verify_errors : int;
  mutable st_quality_lows : int;
  mutable st_crashes : int;
  mutable st_min_overlap : float;
  mutable st_failures : failure list;
}

val n_failures : stats -> int
val pp_stats : Format.formatter -> stats -> unit

val run :
  ?out_dir:string ->
  ?progress:(stats -> unit) ->
  ?cache:Csspgo_orchestrator.Cache.t ->
  ?obs:Csspgo_obs.Metrics.t ->
  ?jobs:int ->
  config ->
  seeds:int * int ->
  stats
(** Run seeds [lo..hi] inclusive, stopping early at [cf_max_failures].
    Raises [Invalid_argument] when [cf_skip] holds a name that is not in
    {!families}.
    When [out_dir] is given, each failure is written there as
    [seed-N.minic] (minimized), [seed-N.orig.minic] and [seed-N.repro].
    [progress] is called after every seed (in seed order).

    Seeds run in batches on {!Csspgo_sched.Scheduler}: one seed per batch
    at [jobs <= 1], where the scheduler runs inline, and [2 * jobs] seeds
    fanned out over [jobs] domains above. Batches merge in seed order, so
    the reported statistics — including the [cf_max_failures] stop point —
    are the same for any [jobs]. [cache] defaults to a private
    in-memory cache; pass a disk-backed one to reuse artifacts across
    campaign invocations.

    [obs] receives [fuzz.seeds], [fuzz.discards] and [fuzz.failures];
    bumps fire at the seed-ordered merge points, so the totals are the
    same for any [jobs]. *)
