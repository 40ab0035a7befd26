(** The build orchestrator: runs staged PGO plans ({!Csspgo_core.Driver.Plan})
    across OCaml 5 domains, with stage memoization through a shared
    content-addressed {!Cache} and optional telemetry through
    {!Csspgo_obs}.

    Every plan is independent of every other, and all stage merges inside a
    plan happen in its fixed stage order, so parallel execution is
    deterministic: binaries, profiles, and [Text_io] dumps are byte-identical
    to the serial ([jobs = 1]) schedule. *)

val plan_label : Csspgo_core.Driver.Plan.t -> string
(** ["<workload>/<variant>"] — span and track naming for a plan. *)

val hooks :
  ?obs:Csspgo_obs.Metrics.t ->
  ?track:Csspgo_obs.Trace.track ->
  ?stage_jobs:int ->
  Cache.t ->
  Csspgo_core.Driver.Plan.hooks
(** Memoization hooks backed by [cache]: stage values round-trip through the
    cache's byte store, so every hit is a fresh deserialized copy (safe to
    mutate, safe across domains). [?obs] becomes [hooks.obs]: the plan's
    stage counters land there as [plan.*] (cache hits included) next to
    the VM/correlator instruments. With [?track], every stage runs under
    a span on that track. [?stage_jobs] (default 1) is handed to the plan
    as [hooks.jobs] — intra-stage parallelism for the sharded correlator,
    byte-identical to serial at any level. *)

val run_plans :
  ?cache:Cache.t ->
  ?obs:Csspgo_obs.Metrics.t ->
  ?stage_jobs:int ->
  jobs:int ->
  Csspgo_core.Driver.Plan.t list ->
  Csspgo_core.Driver.outcome list
(** Execute plans on up to [jobs] domains ([?stage_jobs] additionally
    parallelizes inside each plan's Correlate stage — use it when running
    a single plan, where plan-level parallelism has nothing to chew on;
    results are byte-identical either way). Results in input order. Every
    plan reports to the one [obs] registry: [plan.*] counters sum over
    plans in a schedule-independent way, so a snapshot's name list and
    values are the same at every [jobs]. When [obs] carries a trace, each
    plan gets its own track (tid = plan index, name = {!plan_label}),
    registered serially before scheduling, carrying one whole-plan span
    plus one span per stage; on a fixed-clock trace the exported bytes
    are identical for every [jobs] level. *)

val run_matrix :
  ?cache:Cache.t ->
  ?obs:Csspgo_obs.Metrics.t ->
  ?options:Csspgo_core.Driver.options ->
  jobs:int ->
  variants:Csspgo_core.Driver.variant list ->
  workloads:Csspgo_core.Driver.workload list ->
  unit ->
  (Csspgo_core.Driver.workload * Csspgo_core.Driver.variant * Csspgo_core.Driver.outcome)
  list
(** The variant×workload product, workload-major, in declaration order —
    the shape of every experiment table in the paper. *)
