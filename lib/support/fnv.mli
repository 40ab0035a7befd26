(** FNV-1a 64-bit hashing. Used for function GUIDs (like LLVM's MD5-based
    GUIDs) and for pseudo-probe CFG checksums. *)

type t = int64

val init : t
val string : t -> string -> t
(** Fold a string's bytes into the hash. Allocates only the result. *)

val bytes : t -> Bytes.t -> off:int -> len:int -> t
(** Fold bytes [off .. off + len - 1] of a buffer, read where they lie.
    @raise Invalid_argument when the range is not within the buffer. *)

val int : t -> int -> t
val int64 : t -> int64 -> t

val hash_string : string -> t
(** One-shot convenience: [string init s]. *)

val combine : t -> t -> t
(** Mix two digests into one; order-sensitive. *)
