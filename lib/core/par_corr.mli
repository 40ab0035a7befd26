(** Sharded parallel correlation: run the existing streaming correlators
    per shard of a chunk-partitioned sample log on scheduler domains, and
    reduce the per-shard results to {e exactly} the serial answer.

    Shard boundaries always walk whole samples ({!Csspgo_vm.Sample_log}'s
    chunking), and every reduction here is exact under any whole-sample
    partition of the stream:

    - range/branch aggregates are int count tables, which merge by
      addition ({!Csspgo_profgen.Ranges.merge}: commutative, associative);
    - tail-call edge tables merge by set union, and
      {!Missing_frame.resolve} is edge-order-independent;
    - per-shard context tries (each reconstructed against the {e complete}
      missing-frame table) merge at equal weight under the
      {!Csspgo_profile.Merge} laws, and reconstruction attributes each
      sample independently given that table, so shard tries partition the
      serial trie's counts.

    Consequently the output is byte-identical to a serial run at any
    [jobs] — parallelism changes wall-clock only. The non-additive stage,
    DWARF line correlation (line counts take a {e max} across instructions
    sharing a line), is deliberately left out of the parallel region:
    callers parallelize {!aggregates} and run [Dwarf_corr.correlate_agg]
    once on the merged aggregate, which is the exact serial computation.

    {!Correlate} is the one caller in the library: it clamps [jobs] and
    picks the shards. *)

type shard = Csspgo_vm.Sample_log.t list
(** One shard: a run of chunks fed in order. Chunks are never copied or
    concatenated — feeding a shard replays each chunk in sequence. *)

val shard_samples : shard -> int

val shards_of_log :
  ?chunk:int -> Csspgo_vm.Sample_log.t -> shard list
(** Partition an in-memory log on {!Csspgo_vm.Sample_log.split} boundaries
    (default {!Csspgo_vm.Sample_log.chunk_samples} samples per shard). *)

val plan : ?target:int -> Csspgo_vm.Sample_log.t list -> shard list
(** Group already-decoded chunks (e.g. one per fleet batch) into shards of
    at least [target] samples (default
    {!Csspgo_vm.Sample_log.chunk_samples}), preserving order and dropping
    empty chunks. A pure function of the chunk list — never of a job
    count.
    @raise Invalid_argument when [target] is not positive. *)

val aggregates :
  ?obs:Csspgo_obs.Metrics.t ->
  jobs:int ->
  shard list ->
  Csspgo_profgen.Ranges.agg list
(** Per-shard [Ranges.feed] replay on up to [jobs] domains, one aggregate
    per shard; they reduce by {!Csspgo_profgen.Ranges.merge} to exactly
    the aggregate one serial pass builds. [obs] gets [parcorr.shards] /
    [parcorr.samples] and flows to the scheduler. *)

val missing :
  ?obs:Csspgo_obs.Metrics.t ->
  jobs:int ->
  Csspgo_profgen.Bindex.t ->
  shard list ->
  Missing_frame.t
(** Per-shard tail-call-graph construction reduced by {!Missing_frame.union}.
    The [missing-frame.edges] counter on [obs] is credited once with the
    union's count — the serial number, not the per-shard sum; the
    scheduler counts on [obs] too. *)

val reconstructs :
  ?name_of:(Csspgo_ir.Guid.t -> string option) ->
  ?missing:Missing_frame.t ->
  checksum_of:(Csspgo_ir.Guid.t -> int64) ->
  ?obs:Csspgo_obs.Metrics.t ->
  jobs:int ->
  Csspgo_profgen.Bindex.t ->
  shard list ->
  (Csspgo_profile.Ctx_profile.t * Ctx_reconstruct.stats) list
(** The shard worker: Algorithm 1 per shard against the shared (complete)
    [missing] table, one trie per shard. [obs] takes the [ctx.*]
    counters and the same shard counters as {!aggregates}. *)

val zero_stats : Ctx_reconstruct.stats

val merge_tries :
  ?obs:Csspgo_obs.Metrics.t ->
  jobs:int ->
  (Csspgo_profile.Ctx_profile.t * Ctx_reconstruct.stats) list ->
  Csspgo_profile.Ctx_profile.t * Ctx_reconstruct.stats
(** Equal-weight {!Csspgo_profile.Merge.ctx} with summed stats; a single
    trie is returned as is. Trimming is the caller's job, {e after} the
    merge. *)

val reconstruct :
  ?name_of:(Csspgo_ir.Guid.t -> string option) ->
  ?missing:Missing_frame.t ->
  checksum_of:(Csspgo_ir.Guid.t -> int64) ->
  ?obs:Csspgo_obs.Metrics.t ->
  jobs:int ->
  Csspgo_profgen.Bindex.t ->
  shard list ->
  Csspgo_profile.Ctx_profile.t * Ctx_reconstruct.stats
(** {!merge_tries} of {!reconstructs}. *)
