(** FNV-1a 64-bit hashing. Used for function GUIDs (like LLVM's MD5-based
    GUIDs) and for pseudo-probe CFG checksums. *)

type t = int64

val init : t
val string : t -> string -> t
(** Fold a string's bytes into the hash. Allocates only the result. *)

val int : t -> int -> t
val int64 : t -> int64 -> t

val hash_string : string -> t
(** One-shot convenience: [string init s]. *)

val combine : t -> t -> t
(** Mix two digests into one; order-sensitive. *)
