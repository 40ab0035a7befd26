(** Test-case minimization (delta debugging) for MiniC sources.

    The reducer is purely syntactic: it proposes smaller candidate sources
    — whole brace-balanced statement regions removed, single statements
    removed, expressions replaced by [0] holes, branch conditions pinned —
    and keeps a candidate only when [check] says it still reproduces the
    original failure. [check] is expected to reject candidates that fail to
    parse or that fail for a *different* reason, so reducers stay anchored
    to one bug. *)

val minimize : check:(string -> bool) -> string -> string
(** Shrink [src] to a ~minimal source still satisfying [check]. [check] is
    never called on the original source; the caller guarantees it is
    interesting. Runs simplification rounds to a fixpoint, at most 20
    times. *)

val count_source_lines : string -> int
(** Non-blank line count — the size metric reported for reproducers. *)
