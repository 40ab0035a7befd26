(** Open-addressing hash map keyed on int triples, over flat arrays.

    The one int-keyed table behind the sample-replay kernels: range and
    branch counts ([Profgen.Ranges]), the seen-pair set of
    [Core.Missing_frame], and Algorithm 1's interned stacks and the
    first-seen slot of each (range, stack) key it counts. A lookup or a
    count bump hashes every word of its key, probes linearly, and
    allocates nothing; only growth allocates.

    A pair key [(a, b)] is the triple [(a, b, 0)]. The first key word must
    not be [min_int], which marks a free slot. *)

type 'a t

val create : 'a -> 'a t
(** [create absent] is an empty table; [find] answers [absent] for a
    missing key. *)

val find : 'a t -> int -> int -> int -> 'a

val add : 'a t -> int -> int -> int -> 'a -> unit
(** [add t a b c v] binds an absent key. The table doubles past
    three-quarters load. *)

val bump : int t -> int -> int -> int -> int -> unit
(** [bump t a b c n] adds [n] to the key's count, which starts at the
    table's [absent] value. *)

val iter : (int -> int -> int -> 'a -> unit) -> 'a t -> unit
(** Every binding, in slot order: an order that depends on the insertion
    history, so callers that need a canonical order sort. *)
