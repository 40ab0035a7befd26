(** A whole program: functions grouped into ThinLTO-style modules, plus
    global arrays. The module partition matters to PGO: the in-compiler
    inliner only sees callees in the same module, reproducing the
    cross-module limitation that the CSSPGO pre-inliner works around. *)

type t = {
  funcs : (string, Func.t) Hashtbl.t;
  mutable globals : (string * int) list;  (** array name, element count *)
  mutable main : string;
}

val mk : unit -> t
val add_func : t -> Func.t -> unit
val func : t -> string -> Func.t
val find_func : t -> string -> Func.t option
val find_func_by_guid : t -> Guid.t -> Func.t option
val func_names : t -> string list
(** Sorted, deterministic. *)

val iter_funcs : (Func.t -> unit) -> t -> unit
val add_global : t -> string -> int -> unit

val copy : t -> t
val pp : Format.formatter -> t -> unit
