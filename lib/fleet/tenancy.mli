(** Multi-tenant fleet serving over labeled request streams: serve a
    {!Csspgo_workloads.Mix} across instances, reassemble the labeled
    sample log, slice the correlation per label, and route per-tenant
    slices into per-tenant {e specialized} builds — the label-sliced PGO
    loop, end to end.

    {!collect} serves through {!Sim.serve}, so its blended profile is
    byte-identical to what {!Sim.run} produces on the same traffic
    without labels (one version, equal instances, shards, duty, batch
    size and seed; labels never perturb sample payloads or batching):
    a tenancy run is the plain fleet run plus the per-label view. Only
    the shipped bytes differ, by the CSLG v3 label sections. *)

type config = {
  ty_instances : int;  (** serving instances (requests partition contiguously) *)
  ty_shards : int;  (** collector shards *)
  ty_duty : float;  (** sampling duty cycle, in [0, 1] *)
  ty_batch_requests : int;  (** instance batch flush interval *)
  ty_jobs : int;  (** domains for drain / correlation / plan runs *)
  ty_shape : Build.shape;
  ty_options : Csspgo_core.Driver.options;
  ty_seed : int64;
}

val default : config
(** 2 instances, 2 shards, duty 1.0, batch 4, jobs 1, [Ctx] shape,
    default driver options, seed 1. *)

type collected = {
  co_build : Build.built;
  co_log : Csspgo_vm.Sample_log.t;  (** reassembled, labels intact *)
  co_labeled : Build.labeled;  (** per-request-label slices + blend *)
  co_tenants : Csspgo_profile.Labels.t;
      (** {!co_labeled}[.lc_slices] projected onto the tenant key — one
          slice per tenant, weights summed across its endpoints *)
  co_requests : int;
  co_sampled : int;
  co_samples : int;
  co_batches : int;
  co_bytes : int;
  co_cycles : int64;
}

val collect :
  ?obs:Csspgo_obs.Metrics.t ->
  config ->
  Csspgo_workloads.Mix.t ->
  collected
(** Build the mix's profiling binary, serve the labeled train stream as
    one version-0 cohort of [ty_instances] ({!Sim.serve}), drain the
    collector, and run {!Build.correlate_labeled}, all reporting to
    [obs]. Deterministic for equal inputs at any [ty_jobs]. A
    non-positive instance count, shard count or batch size, or a duty
    outside [0, 1], raises [Invalid_argument] naming the field before
    the build. *)

type specialized = {
  sp_tenant : string;
  sp_label : Csspgo_support.Label_set.t;  (** the projected tenant label *)
  sp_weight : int64;  (** observed sample count of the tenant's slice *)
  sp_sliced : Csspgo_core.Driver.outcome option;
      (** build specialized on the tenant's own slice, evaluated on the
          tenant's eval specs; [None] when the tenant collected no samples
          (nothing to specialize on) *)
  sp_blended : Csspgo_core.Driver.outcome;
      (** build on the blended profile, same tenant eval specs *)
}

val specialize :
  ?hooks:Csspgo_core.Driver.Plan.hooks ->
  config ->
  Csspgo_workloads.Mix.t ->
  collected ->
  specialized list
(** For every tenant of the mix (mix order): inject the tenant's
    slice profile and the blended profile into
    [Driver.Plan.make_with_profile] plans whose eval specs are the
    tenant's own, and run both. The per-tenant sliced-vs-blended outcome
    pair is the PGO-quality comparison the label machinery exists for. *)

type comparison = {
  cp_tenant : string;
  cp_weight : int64;
  cp_share : float;  (** slice weight / total sample mass *)
  cp_sliced_overlap : float;
      (** block overlap of the sliced build's annotation vs the tenant's
          instrumentation ground truth; [nan] when not specialized *)
  cp_blended_overlap : float;
  cp_sliced_cycles : int64;  (** [-1] when not specialized *)
  cp_blended_cycles : int64;
  cp_nopgo_cycles : int64;
}

val quality :
  ?hooks:Csspgo_core.Driver.Plan.hooks ->
  config ->
  Csspgo_workloads.Mix.t ->
  collected ->
  specialized list ->
  comparison list
(** Score {!specialize}'s outcomes per tenant: instrumentation ground
    truth is an [Instr_pgo] run trained on exactly the tenant's requests
    from the served stream and evaluated on its eval specs; overlaps are
    {!Csspgo_core.Quality.block_overlap} against it, and a [Nopgo] build
    provides the cycle baseline. Tenants absent from the stream are
    skipped. *)
