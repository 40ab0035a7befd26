(** The profile reader: one entry point for "read whatever profile this
    is", dispatching between the canonical text form ({!Text_io}) and the
    digest-framed binary form ({!Binary_io}) by sniffing.

    The tool's profile-file commands read through this module; writers
    pick a form themselves with {!Text_io.to_string} or
    {!Binary_io.encode}. *)

type form = Text | Binary

val sniff : string -> form
(** [Binary] iff the data starts with the {!Binary_io.magic} blob prefix;
    text profiles never do. *)

val read : string -> (Text_io.profile, string) result
(** Sniff and decode: binary blobs via {!Binary_io.decode}, anything else
    via {!Text_io.of_string} (kind-sniffing text parse). Either failure
    mode becomes a human-readable message. *)
