(** Compact binary serialization for profiles — the wire format the paper's
    continuous-profiling loop would ship, next to {!Text_io}'s golden/debug
    text. One digest-framed {!Csspgo_support.Wire} envelope per blob, with
    one section per profile shape:

    {v
    "CSPB" | version | nsections | section(tag, len, payload, fnv64)
    tag 1 = line profile, 2 = probe profile, 3 = ctx profile
    v}

    Payloads are varint-packed (LEB128) with entries in the same canonical
    order {!Text_io}'s writers use, so [encode] is deterministic and
    [decode] rebuilds through the same accumulation API as the text
    readers: [Text_io.to_string (decode (encode p))] is byte-identical to
    [Text_io.to_string p].

    Decoding validates the envelope before touching any payload; bad input
    yields a typed [Error _], never an exception. A declared count
    allocates nothing the payload cannot back: a ctx section declaring
    more nodes than a ninth of its remaining bytes (nine bytes is a node's
    least encoding) is [Malformed] before its node table is allocated,
    and flat entry counts allocate nothing up front. Version-1 blobs are a
    compatibility contract: future format bumps must keep decoding them
    (the golden [.bprof] fixtures under test/ pin this). *)

val magic : string
(** ["CSPB"], the 4-byte blob prefix. *)

val version : int
(** Current write-side format version (1). *)

val encode : Text_io.profile -> string

val decode : string -> (Text_io.profile, Csspgo_support.Wire.error) result

val is_binary : string -> bool
(** Format sniffing: does the data start with {!magic}? Text profiles never
    do ([#], [function] or [context] lead). Auto-detecting reads live in
    {!Io}, the form-dispatching facade. *)
