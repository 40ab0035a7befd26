(** Binary wire primitives shared by every on-disk codec ([Profile.Binary_io],
    [Vm.Sample_log]): LEB128 varints, length-prefixed strings, and a
    digest-framed section envelope.

    The envelope layout is

    {v
    magic (4 bytes) | version (varint) | nsections (varint) | section*
    section := tag (varint) | length (varint) | payload | digest (8 bytes LE)
    v}

    where [digest] is FNV-1a over the section tag and payload bytes.
    {!unframe} validates the whole frame — magic, version range, section
    count, length bounds, digests, and the absence of trailing bytes —
    before handing any payload to a decoder, so truncated or corrupted
    input surfaces as a typed {!error}, never as an exception or a
    silently wrong value. *)

type error =
  | Bad_magic of { expected : string; got : string }
  | Unsupported_version of { version : int; max : int }
  | Truncated of string          (** what was being read when input ran out *)
  | Digest_mismatch of { section : int }  (** 0-based section index *)
  | Malformed of string          (** structurally invalid content *)

val error_to_string : error -> string

exception Error of error
(** Raised by {!Dec} cursor reads. {!unframe} and codec entry points catch
    it and return [Error _] results; it never escapes a [decode]. *)

(** Append-only encode buffer. *)
module Enc : sig
  type t

  val create : unit -> t

  val byte : t -> int -> unit
  (** Append the low 8 bits. *)

  val varint64 : t -> int64 -> unit
  (** Unsigned LEB128 of the 64-bit pattern (negative = 10 bytes). *)

  val varint : t -> int -> unit
  (** [varint64] of [Int64.of_int]: a non-negative int is written straight
      from the native int, allocating nothing; a negative one takes the
      [Int64] path (10 bytes). *)

  val string : t -> string -> unit
  (** Varint length prefix + bytes. *)

  val contents : t -> string
end

(** Bounds-checked decode cursor over a payload slice. Reads raise
    {!Error} ([Truncated] past the end, [Malformed] on varints longer than
    10 bytes or strings with absurd lengths). *)
module Dec : sig
  type t

  val of_string : string -> t
  val byte : t -> int
  val varint64 : t -> int64

  val varint : t -> int
  (** [varint64] narrowed to the native int ([Malformed] outside its
      range). Varints of up to 8 bytes decode in a native int and
      allocate nothing. *)

  val string : t -> string

  val varint_into : t -> int array -> int -> unit
  (** [varint_into t a n] decodes [n] varints into [a.(0 .. n-1)] — the
      bulk form of {!varint} the sample-log decoder runs on. One mask test
      on 8 loaded bytes decodes a run of 8 single-byte varints at once;
      other varints that end within 8 in-bounds bytes are read without
      bounds checks or cursor traffic. Nothing is allocated unless a varint
      is 9 bytes or longer. Element-wise results, the final cursor and
      error behavior are identical to [n] calls of {!varint}.
      @raise Invalid_argument when [n] is negative or exceeds [a]'s
      length. *)

  val at_end : t -> bool
  val remaining : t -> int
end

val frame : magic:string -> version:int -> (int * string) list -> string
(** [frame ~magic ~version sections] assembles a complete framed blob from
    [(tag, payload)] sections. [magic] must be exactly 4 bytes. *)

val unframe :
  magic:string -> max_version:int -> string -> (int * (int * string) list, error) result
(** Validate and take apart a framed blob: returns [(version, sections)]
    with every section's digest already checked. Versions outside
    [1..max_version] are rejected ([Unsupported_version]), as are trailing
    bytes after the last declared section ([Malformed]). *)

val sniff : magic:string -> string -> bool
(** Cheap format detection: does the blob start with [magic]? *)

val section_digest : tag:int -> string -> int64
(** The FNV-1a digest {!frame} writes (and {!unframe} checks) for a
    section: seeded with the tag, then the payload bytes. Exposed so
    inspection tooling can display the per-section digests of a blob it
    just unframed without re-deriving the trailer layout. *)
