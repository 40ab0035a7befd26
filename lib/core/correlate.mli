(** The log-to-profile correlation kernel: one sample stream in, one line,
    probe or context profile out, as the paper's profile generator does.
    The Driver's [Correlate] stage, [Driver.profile_pipeline_texts], the
    fleet's serial, chunk-sharded and label-sliced correlation and the
    [contexts] command all run it; no other path turns samples into a
    profile.

    It owns the reference symbol tables, the record-time tee sink, the
    shape dispatch, the trim step and the shard replay. Replay runs
    through {!Par_corr} over whole-sample shards, one shard for a serial
    log, and the result is the shards' exact reduction: byte-identical
    for any sharding and any [jobs]. *)

type shape = Lines | Probes | Ctx
(** DWARF line (AutoFDO), flat pseudo-probe, or context trie (CSSPGO). *)

type symbols = {
  names : string Csspgo_ir.Guid.Tbl.t;
  checksums : int64 Csspgo_ir.Guid.Tbl.t;
}
(** Function names and CFG checksums of the reference (pre-optimization)
    program that correlated profiles are keyed against. *)

val symbols : Csspgo_ir.Program.t -> symbols
val name_of : symbols -> Csspgo_ir.Guid.t -> string option
val checksum_of : symbols -> Csspgo_ir.Guid.t -> int64  (** [0L] if unknown *)

val recorder :
  ?obs:Csspgo_obs.Metrics.t ->
  missing:bool ->
  Csspgo_codegen.Mach.binary ->
  Csspgo_vm.Machine.sink
  * (unit -> Csspgo_profgen.Ranges.agg * Missing_frame.t option * Csspgo_vm.Sample_log.t)
(** A tee sink for a profiling run: each sample feeds the range aggregate,
    the missing-frame builder (when [missing]; [obs] gets its edge count)
    and a compact log. Call the finisher once after the run; its first two
    results are {!run}'s [recorded]. *)

type target
(** A profiled binary with its dense instruction index and symbols. *)

val target : symbols -> Csspgo_codegen.Mach.binary -> target

val of_agg :
  ?obs:Csspgo_obs.Metrics.t ->
  target ->
  shape ->
  Csspgo_profgen.Ranges.agg ->
  Csspgo_profile.Text_io.profile
(** Correlate a range aggregate: a line profile for [Lines], the flat
    probe profile for [Probes] and [Ctx]. *)

val trim : threshold:int64 -> Csspgo_profile.Ctx_profile.t -> unit
(** Cold-context trimming; a threshold of 0 or less keeps the trie. *)

type input =
  | Log of Csspgo_vm.Sample_log.t
      (** one shard at [jobs = 1], {!Par_corr.shards_of_log} above *)
  | Shards of Par_corr.shard list  (** as given, at any [jobs] *)

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
  ?recorded:Csspgo_profgen.Ranges.agg * Missing_frame.t option ->
  ?keep_shards:bool ->
  shape ->
  target ->
  input ->
  result
(** Correlate a sample stream. [jobs] is clamped to
    [Domain.recommended_domain_count ()], each clamp counted in
    [parcorr.jobs-clamped] on [obs]. The aggregate and, for [Ctx] with
    [missing_frames], the missing-frame table come from [recorded] or are
    replayed from the shards. [Ctx] runs Algorithm 1 per shard against the
    complete table, merges the tries and trims the merge at [trim].

    [obs] is the run's one telemetry handle. It takes the correlator
    counters ([dwarf-corr.*], [probe-corr.*], [ctx.*],
    [missing-frame.edges]) and the shard and scheduler counters
    ([parcorr.*], [sched.*]), and its trace the scheduler's spans. Every
    run counts its shards, a one-shard serial run included. *)
