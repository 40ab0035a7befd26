(** The sharded sample collector: fleet instances {!ingest} CSLG-framed
    batches into shards (routed by instance id), and a drain at the end
    of the collection window decodes every shard in parallel — either
    reassembling one merged sample log per binary version ({!drain}) or,
    for the fused decode-and-correlate path, handing back each version's
    decoded chunk list untouched ({!drain_chunks}), so the concatenated
    log is never materialized.

    Drain ordering is deterministic and independent of both arrival order
    and [jobs]: batches sort by (version, instance, seq) — the collection
    order within each instance, instances in fleet order — and each
    version's chunks concatenate in that order in one pass
    ({!Csspgo_vm.Sample_log.concat}). With contiguous
    request partitioning and full duty, a version's merged log is
    byte-identical (under re-encoding) to the log a single instance serving
    the whole stream would have produced. *)

type t

val create :
  ?obs:Csspgo_obs.Metrics.t -> ?lossy:bool -> shards:int -> unit -> t
(** [shards] must be positive. [obs] is the collector's telemetry handle
    for its whole life: it receives [collector.batches], [collector.bytes]
    and [collector.samples] counters as batches arrive, plus
    [collector.dropped-blobs] for every undecodable blob seen at drain
    time, and every drain's scheduler counters and spans. With [lossy]
    (default [false]) a corrupt blob is counted and skipped instead of
    failing the drain — continuous-profiling ingest should degrade to
    losing one batch, not losing the window. *)

val shards : t -> int

val ingest : t -> Instance.batch -> unit
(** Route a batch to shard [b_instance mod shards]. Cheap: the CSLG blob is
    stored undecoded; decoding is deferred to drain time. *)

type merged = {
  m_version : int;
  m_log : Csspgo_vm.Sample_log.t;  (** all of the version's samples *)
  m_batches : int;
  m_samples : int;
  m_bytes : int;  (** shipped CSLG bytes for this version *)
}

val drain :
  jobs:int ->
  t ->
  merged list
(** Decode and reassemble, [merged] sorted by version. On a corrupt blob:
    counted in [collector.dropped-blobs], then skipped when the collector
    is lossy, else [Failure] naming the offending instance/seq. The
    collector is emptied; a second drain returns []. *)

type chunks = {
  k_version : int;
  k_chunks : Csspgo_vm.Sample_log.t list;
      (** every decoded CSLG chunk, batch (version, instance, seq) order,
          chunks in frame order within a batch *)
  k_batches : int;
  k_samples : int;
  k_bytes : int;
}

val drain_chunks :
  jobs:int ->
  t ->
  chunks list
(** The fused-correlation drain: same gathering, ordering, corrupt-blob
    and emptying behavior as {!drain}, but each version keeps its decoded
    chunk partition (concatenating [k_chunks] in order would reproduce
    [m_log] exactly). Feed the chunks to [Build.correlate_chunks], the
    correlation kernel's chunk-sharded run, and the per-version log never
    exists in one arena. *)
