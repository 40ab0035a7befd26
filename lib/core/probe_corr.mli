(** Probe-based profile correlation (flat, context-insensitive): the
    probe-only CSSPGO variant. Execution ranges from LBR samples are mapped
    onto the pseudo-probe records they cover; copies of a duplicated probe
    accumulate into the same id (summing — correct under code duplication,
    unlike the DWARF max-heuristic), and merged code cannot occur because
    probes block code merge.

    [checksum_of] supplies the profiling build's per-function CFG checksum
    (read from the pseudo-probe descriptors); it is stored in the profile
    for drift detection at annotation time. *)

val correlate_agg :
  name_of:(Csspgo_ir.Guid.t -> string option) ->
  index:Csspgo_profgen.Bindex.t ->
  checksum_of:(Csspgo_ir.Guid.t -> int64) ->
  ?obs:Csspgo_obs.Metrics.t ->
  Csspgo_codegen.Mach.binary ->
  Csspgo_profgen.Ranges.agg ->
  Csspgo_profile.Probe_profile.t
(** Correlate an online-built aggregate; [index] must be built on the
    binary itself, or [Invalid_argument] is raised. Ranges, calls and
    head counts are read through [index] alone, so a range whose start
    maps to no instruction adds nothing.
    A guid [name_of] misses is named in hex. [obs] receives
    [probe-corr.ranges], [probe-corr.ranges-unmatched] (ranges covering no
    probe), [probe-corr.probe-hits] and [probe-corr.callsites], each bumped
    once at the end. *)

