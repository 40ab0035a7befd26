(** Per-version build and correlation support for the fleet loop.

    Each binary version in flight gets one {!built}: the probed profiling
    binary its instances serve traffic on, plus the pre-optimization IR
    that anchors correlation names/checksums and stale matching. Every
    correlation below is one {!Csspgo_core.Correlate.run}, the kernel a
    [Driver.Plan] [Correlate] stage runs too, so a single-version fleet
    at full duty produces a profile byte-identical to the plan
    pipeline's. The three forms differ only in their shards: the whole
    log, the collector's chunk groups, or the request-label slices. *)

type shape = Csspgo_core.Correlate.shape = Lines | Probes | Ctx
(** The sampled profile shape: DWARF line (AutoFDO), flat pseudo-probe,
    or context trie (full CSSPGO). *)

val shape_name : shape -> string
val kind_of_shape : shape -> Csspgo_profile.Text_io.kind

type built = {
  vb_source : string;
  vb_bin : Csspgo_codegen.Mach.binary;
      (** profiling build: probed for [Probes]/[Ctx], plain for [Lines] *)
  vb_target : Csspgo_ir.Program.t;
      (** pre-opt IR, probed for the probe shapes — the stale-match target
          and the name/checksum reference *)
  vb_symbols : Csspgo_core.Correlate.symbols;  (** [vb_target]'s symbols *)
}

val profiling_build :
  options:Csspgo_core.Driver.options -> shape:shape -> source:string -> built

val correlate :
  ?obs:Csspgo_obs.Metrics.t ->
  options:Csspgo_core.Driver.options ->
  shape:shape ->
  built ->
  Csspgo_vm.Sample_log.t ->
  Csspgo_profile.Text_io.profile * Csspgo_profile.Probe_profile.t option
(** Correlate a (merged) sample log collected on [built]'s binary: the
    kernel run with the whole log as its one shard, at [-j 1] — the serial
    reference the sharded forms are held against. For [Ctx] the context
    trie is trimmed at [options.trim_threshold] and the flat
    (context-merged) probe profile rides along as the quality baseline;
    other shapes return [None]. [obs] takes the kernel's correlator,
    shard and scheduler counters ({!Csspgo_core.Correlate.run}). *)

val correlate_chunks :
  ?obs:Csspgo_obs.Metrics.t ->
  ?shard_target:int ->
  jobs:int ->
  options:Csspgo_core.Driver.options ->
  shape:shape ->
  built ->
  Csspgo_vm.Sample_log.t list ->
  Csspgo_profile.Text_io.profile * Csspgo_profile.Probe_profile.t option
(** The kernel run over a decoded chunk list (the [Collector.drain_chunks]
    shape), with [Par_corr.plan]'s chunk groups as its shards — the
    concatenated log is never materialized. Byte-identical to [correlate]
    on the concatenation at any [jobs]: chunk grouping is a pure function
    of the chunk list, and every per-shard reduction is exact
    ({!Csspgo_core.Par_corr}). [jobs] is clamped to the core count. [obs]
    takes the same counters as in {!correlate}, and its trace the
    scheduler's spans. [shard_target] overrides [Par_corr.plan]'s
    samples-per-shard target — tests and oracles shrink it to force
    multi-shard merges on logs far smaller than production windows. *)

type labeled = {
  lc_slices : Csspgo_profile.Labels.t;
      (** one profile per distinct request label set, in first-appearance
          order, weighted by observed sample count; [Ctx] slices untrimmed *)
  lc_blend : Csspgo_profile.Text_io.profile;
      (** byte-identical to {!correlate}'s profile on the same log *)
  lc_flat : Csspgo_profile.Probe_profile.t option;
      (** byte-identical to {!correlate}'s flat baseline ([Ctx] only) *)
}

val correlate_labeled :
  ?obs:Csspgo_obs.Metrics.t ->
  ?jobs:int ->
  options:Csspgo_core.Driver.options ->
  shape:shape ->
  built ->
  Csspgo_vm.Sample_log.t ->
  labeled
(** Label-sliced {!correlate}: the kernel run with the request-label
    slices ({!Csspgo_vm.Sample_log.slice_by_label}) as its shards,
    keeping each slice's profile. Slices correlate on up to [jobs]
    domains. The missing-frame table is built from every slice, so from
    the {e full} log, and is shared by all of them. The blend is the
    kernel's reduction: line and probe blends correlate the merged range
    aggregate (per-line counts are not additive at profile level), and
    the [Ctx] blend merges the untrimmed slice tries at weight 1 and
    trims at [options.trim_threshold]. It is byte-identical to
    {!correlate} on the same log at any [jobs] (oracle family 10); an
    unlabeled log yields the single implicit empty-label slice. [obs]
    takes the same counters as in {!correlate}, one shard per slice. *)

val match_onto :
  ?obs:Csspgo_obs.Metrics.t ->
  target:Csspgo_ir.Program.t ->
  Csspgo_profile.Text_io.profile ->
  Csspgo_profile.Text_io.profile * Csspgo_core.Stale_match.report
(** {!Csspgo_core.Stale_match.route} of a profile without a flat
    baseline onto another version's {!built}[.vb_target]. *)
