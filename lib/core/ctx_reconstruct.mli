(** Algorithm 1 (§III.B): reconstruct the calling context of every LBR
    execution range from synchronized LBR + stack samples.

    LBR entries are processed in reverse execution order while maintaining
    the physical frame stack: undoing a call pops the leaf frame, undoing a
    return re-pushes the returned-from frame, and the linear range between
    two consecutive entries is attributed — with its full inline expansion —
    to the stack state current at that point. Probe hits land in the context
    trie at (caller chain ++ probe inline chain).

    Robustness mitigations, as in the paper:
    - misaligned samples (stack lagging the LBR due to sampling skid when
      PEBS is off) are detected by comparing the leaf frame's function with
      the last LBR target's function, and dropped;
    - gaps caused by tail-call elimination are repaired with the
      [Missing_frame] inferrer when a unique tail-call path exists,
      otherwise the outer context is truncated. *)

type stats = {
  st_samples : int;
  st_dropped_misaligned : int;
  st_gaps_resolved : int;   (** missing-frame gaps repaired *)
  st_gaps_failed : int;     (** gaps that truncated the context *)
}

module Stacks : sig
  (** Interned caller stacks. Every distinct stack of return addresses
      has one dense int id: [empty] is the empty stack, and any other id
      is one address pushed onto its parent id. Equal stacks get equal
      ids however they were reached. *)

  type t

  val create : unit -> t

  val empty : int

  val push : t -> int -> int -> int
  (** [push t id addr]: the id of stack [id] with [addr] pushed as its new
      innermost frame. One lookup in a flat int-keyed table. *)

  val pop : t -> int -> int
  (** The id without its innermost frame; [pop t empty = empty]. *)

  val frames : t -> int -> int list
  (** The stack's return addresses, innermost first. *)
end

type stream
(** Online reconstruction state. [start] once per profiled binary, [feed]
    each sample (scratch-safe: only ints are read out of the buffers),
    [finish] for the trie + stats. All per-LBR-entry work (branch
    classification, call-before resolution, inline level paths) runs on the
    dense {!Csspgo_profgen.Bindex} tables. With missing-frame inference the
    [Missing_frame.t] passed to [start] must already be complete (built
    online during the profiling run and finished before the first [feed]);
    path uniqueness depends on the whole edge table.

    Caller stacks are interned ({!Stacks}): undoing a call moves to the
    parent id, undoing a return looks up a child id. Each stack id walks
    its return addresses once, extending its parent's walk (tail-call gaps
    included), and finds its trie node the first time an attribution
    needs it.

    Attribution is aggregate-then-resolve, as llvm-profgen unwinds each
    distinct sample once. [feed] only counts: each [(range start, range
    end, stack id)] key gets a slot in one {!Csspgo_support.Itab} the
    first time it is seen, and a repeat bumps that slot's int count.
    [finish] resolves each key once, in first-seen order: the leaf-level
    gap check, one pass over the range's probes and call sites, and a
    trie step per inline frame, with the key's count applied to every
    bump and gap counter. A name is formatted only for a node being
    created. Resolving in first-seen order creates every trie node and
    probe/call table entry in the order a pass that applied each
    attribution at once would create it, so iteration orders, and the
    pre-inliner choices that read them, do not depend on the
    aggregation. The trie and the stats exist only after [finish]. *)

val start :
  name_of:(Csspgo_ir.Guid.t -> string option) ->
  ?missing:Missing_frame.t ->
  checksum_of:(Csspgo_ir.Guid.t -> int64) ->
  ?obs:Csspgo_obs.Metrics.t ->
  Csspgo_profgen.Bindex.t ->
  stream

val feed :
  stream -> lbr:int array -> lbr_len:int -> stack:int array -> stack_len:int -> unit
(** One sample, LBR in {!Csspgo_vm.Machine.sink}'s flat layout. *)

val finish : stream -> Csspgo_profile.Ctx_profile.t * stats
(** Resolves every counted key, then returns the trie; call it once, after
    the last [feed]. Also flushes telemetry to [obs], accumulated locally
    during the run:
    [ctx.samples], [ctx.dropped-misaligned], [ctx.gaps-resolved],
    [ctx.gaps-failed], [ctx.inferred-frames] counters and the
    [ctx.context-depth] histogram (stack depth per aligned sample).
    Observation never changes attribution. *)
