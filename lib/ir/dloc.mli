(** Debug locations with inline stacks — the DWARF-like correlation anchors
    used by sampling-based PGO (AutoFDO).

    A location names a source line inside its *origin* function, plus a
    discriminator distinguishing multiple code paths compiled from the same
    line, plus the chain of callsites through which the instruction was
    inlined ([inlined_at], ordered innermost-first; the last entry's
    [cs_func] is the physical containing function). *)

type callsite = {
  cs_func : Guid.t;  (** function containing the callsite *)
  cs_line : int;     (** source line of the callsite within [cs_func] *)
  cs_disc : int;     (** discriminator of the callsite *)
  cs_probe : int;    (** callsite probe id within [cs_func]; 0 when absent *)
}

type t = {
  origin : Guid.t;  (** function the [line] belongs to *)
  line : int;       (** function-relative source line (AutoFDO line offset) *)
  disc : int;       (** DWARF discriminator *)
  inlined_at : callsite list;  (** innermost-first inline chain; [] = not inlined *)
}

val none : t
(** Absent debug info ([origin = 0L], [line = 0]): produced when an
    optimization drops locations. *)

val is_none : t -> bool
val mk : Guid.t -> int -> t

val push_inline : t -> callsite -> t
(** [push_inline d cs] records that the instruction carrying [d] was inlined
    through callsite [cs]; [cs] becomes the new outermost frame. *)

val frames : container:Guid.t -> t -> (Guid.t * int * int) list
(** The full inline frame view of a location: innermost-first list of
    [(function, line, probe)] pairs, where [line]/[probe] of frame [i] is the
    callsite in that function at which frame [i-1] was inlined (for the
    innermost frame it is the instruction's own line and 0).
    [container] is the physical function holding the instruction and is used
    for the outermost frame when the location carries no better info. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
