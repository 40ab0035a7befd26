(** Binary wire primitives shared by every on-disk codec ([Profile.Binary_io],
    [Vm.Sample_log]): LEB128 varints, length-prefixed strings, and a
    digest-framed section envelope with one framer ({!frame}) and one
    unframer ({!unframe}).

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
    silently wrong value. {!frame} puts each payload into the blob once,
    either from an encoder or encoded straight into it, and {!unframe}
    copies none: it returns each section as a {!span} of the blob it was
    given. *)

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

type span = { s_tag : int; s_off : int; s_len : int }
(** A section of a blob, in place: tag [s_tag], payload bytes
    [s_off .. s_off + s_len - 1]. *)

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

val varint_size : int -> int
(** Bytes {!Enc.varint} writes for a value. *)

(** Bounds-checked decode cursor over a payload slice. Reads raise
    {!Error} ([Truncated] past the end, [Malformed] on varints longer than
    10 bytes or strings with absurd lengths). *)
module Dec : sig
  type t

  val of_string : string -> t

  val of_span : string -> span -> t
  (** A cursor over one section's payload, read where it lies in the blob.
      @raise Invalid_argument when the span is not within the string. *)

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

type section
(** A section for {!frame}: a tag, and a payload of known length. *)

val section : tag:int -> Enc.t -> section
(** A payload already encoded: {!frame} copies its bytes into the blob
    once. *)

val section_sized : tag:int -> len:int -> (Enc.t -> unit) -> section
(** A payload encoded straight into the blob: [write] appends exactly
    [len] bytes to the encoder it is given (checked by {!frame}).
    {!frame} calls each section's [write] once, in section order.
    @raise Invalid_argument when [len] is negative. *)

val frame : magic:string -> version:int -> section list -> string
(** [frame ~magic ~version sections] assembles a complete framed blob,
    sized before any byte is written and encoded in one buffer of exactly
    that size. [magic] must be exactly 4 bytes.
    @raise Invalid_argument when a section's [write] does not write its
    declared length. *)

val unframe :
  magic:string -> max_version:int -> string -> (int * span list, error) result
(** Validate and take apart a framed blob: returns [(version, sections)]
    with every section's digest already checked, each section a span of
    the blob (no payload is copied). Versions outside [1..max_version] are
    rejected ([Unsupported_version]), as are trailing bytes after the last
    declared section ([Malformed]). *)

val sniff : magic:string -> string -> bool
(** Cheap format detection: does the blob start with [magic]? *)

val section_digest : string -> span -> int64
(** The FNV-1a digest {!frame} writes (and {!unframe} checks) for a
    section of a blob: seeded with the tag, then the payload bytes.
    Exposed so inspection tooling can display the per-section digests of
    a blob it just unframed without re-deriving the trailer layout. *)
