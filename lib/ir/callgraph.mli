(** Static call graph over a program, with bottom-up (callees before callers)
    and top-down orders. Recursion is handled by breaking cycles at an
    arbitrary deterministic edge. *)

type t

val build : Program.t -> t
val callees : t -> string -> string list
(** Unique callee names, deterministic order. *)

val bottom_up : t -> string list
(** Every function exactly once; a callee precedes its callers whenever the
    graph is acyclic between them. *)

val top_down : t -> string list
val is_recursive : t -> string -> bool
(** Whether the function participates in a call-graph cycle (including
    self-recursion). *)
