(** The log-to-profile correlation kernel: one sample stream in, one line,
    probe or context profile out, as the paper's profile generator does.
    A profiling run records a plain {!Csspgo_vm.Sample_log}, and the
    kernel correlates it afterwards. The Driver's [Correlate] stage, the
    fleet's serial, chunk-sharded and label-sliced correlation and the
    [contexts] command all run it; no other path turns samples into a
    profile.

    It owns the reference symbol tables, the shape dispatch, the trim step
    and the shard replay. A stream is a list
    of whole-sample shards (one shard for a serial log); each shard is
    replayed on a scheduler domain and the per-shard results are reduced.
    Every reduction is exact under any whole-sample partition of the
    stream:

    - range/branch aggregates are int count tables, which merge by
      addition ({!Csspgo_profgen.Ranges.merge}: commutative, associative);
    - tail-call edge tables merge by set union, and
      {!Missing_frame.resolve} is edge-order-independent;
    - per-shard context tries (each reconstructed against the {e complete}
      missing-frame table) merge at equal weight under the
      {!Csspgo_profile.Merge} laws, and reconstruction attributes each
      sample independently given that table, so shard tries partition the
      serial trie's counts.

    So the output is byte-identical for any sharding and any [jobs];
    parallelism changes wall-clock only. DWARF line correlation is not
    additive (line counts take a {e max} across instructions sharing a
    line), so it stays out of the parallel region and runs once on the
    merged aggregate, which is the exact serial computation. *)

type shape = Lines | Probes | Ctx
(** DWARF line (AutoFDO), flat pseudo-probe, or context trie (CSSPGO). *)

type symbols = {
  names : string Csspgo_ir.Guid.Tbl.t;
  checksums : int64 Csspgo_ir.Guid.Tbl.t;
}
(** Function names and CFG checksums of the reference (pre-optimization)
    program that correlated profiles are keyed against. *)

val symbols : Csspgo_ir.Program.t -> symbols

type target
(** A profiled binary with its dense instruction index and symbols. *)

val target : symbols -> Csspgo_codegen.Mach.binary -> target

type shard = Csspgo_vm.Sample_log.t list
(** One shard: a run of chunks fed in order. Chunks are never copied or
    concatenated — replaying a shard replays each chunk in sequence. *)

val plan : ?target:int -> Csspgo_vm.Sample_log.t list -> shard list
(** Group already-decoded chunks (e.g. one per fleet batch) into shards of
    at least [target] samples (default
    {!Csspgo_vm.Sample_log.chunk_samples}), preserving order and dropping
    empty chunks. A pure function of the chunk list — never of a job
    count.
    @raise Invalid_argument when [target] is not positive. *)

type input =
  | Log of Csspgo_vm.Sample_log.t
      (** one shard at [jobs = 1]; above, one shard per
          {!Csspgo_vm.Sample_log.split} chunk *)
  | Shards of shard list  (** as given, at any [jobs] *)

type result = {
  profile : Csspgo_profile.Text_io.profile;  (** [Ctx]: the trimmed merge *)
  flat : Csspgo_profile.Probe_profile.t Lazy.t option;
      (** [Ctx] only: the flat probe profile, the quality baseline *)
  stats : Ctx_reconstruct.stats;  (** summed over shards; zero unless [Ctx] *)
  slices : Csspgo_profile.Text_io.profile list;
      (** with [keep_shards], one untrimmed profile per shard; else [[]] *)
}

val run :
  ?obs:Csspgo_obs.Metrics.t ->
  jobs:int ->
  missing_frames:bool ->
  trim:int64 ->
  ?keep_shards:bool ->
  shape ->
  target ->
  input ->
  result
(** Correlate a sample stream. [jobs] is clamped to
    [Domain.recommended_domain_count ()], each clamp counted in
    [parcorr.jobs-clamped] on [obs]. Every shape replays the shards once
    into the range aggregate; [Ctx] with [missing_frames] replays them
    once more into the missing-frame table, then runs Algorithm 1 per
    shard against the complete table, merges the tries and trims the
    merge at [trim]. Its flat baseline is the aggregate's probe profile.

    [obs] is the run's one telemetry handle. It takes the correlator
    counters ([dwarf-corr.*], [probe-corr.*], [ctx.*],
    [missing-frame.edges]) and the shard and scheduler counters
    ([parcorr.*], [sched.*]), and its trace the scheduler's spans. Every
    run counts its shards, a one-shard serial run included. *)
