(** Growable array, in the style of [Dynarray] (which is unavailable before
    OCaml 5.2). Indices are 0-based; out-of-range accesses raise
    [Invalid_argument]. *)

type 'a t

val create : unit -> 'a t

val make : int -> 'a -> 'a t
(** [make n x] is a vector of length [n] filled with [x]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Remove and return the last element. Raises [Invalid_argument] on empty. *)

val last : 'a t -> 'a
val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val map : ('a -> 'b) -> 'a t -> 'b t
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val for_all : ('a -> bool) -> 'a t -> bool
val find_opt : ('a -> bool) -> 'a t -> 'a option
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
val copy : 'a t -> 'a t

val append : 'a t -> 'a t -> unit
(** [append dst src] pushes all elements of [src] onto [dst]. *)

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep only elements satisfying the predicate, preserving order. *)

val sort : ('a -> 'a -> int) -> 'a t -> unit
