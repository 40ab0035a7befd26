(** Mutable binary max-heap parameterized by a comparison function.
    [compare a b > 0] means [a] has higher priority than [b]. *)

type 'a t

val create : ('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the highest-priority element. *)

val of_list : ('a -> 'a -> int) -> 'a list -> 'a t
val to_sorted_list : 'a t -> 'a list
(** Drains the heap; highest priority first. *)
