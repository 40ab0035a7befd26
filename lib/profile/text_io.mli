(** Text serialization for profiles, in the spirit of LLVM's text sample
    profiles — human-inspectable, diffable, and stable across versions.

    Formats (one record per line, [#] comments allowed):

    Probe profiles:
    {v
    function <name> guid=<hex> total=<n> head=<n> checksum=<hex>
     probe <id> <count>
     call <site-id> <callee-guid-hex> <count>
    v}

    Context profiles add a context header per node, outermost frame first:
    {v
    context <name> guid=<hex> [inlined]
     frame <func-guid-hex> <site-id>
     ... probe/call records ...
    v}

    Line profiles:
    {v
    function <name> guid=<hex> total=<n> head=<n>
     line <line>.<disc> <count>
     callline <line>.<disc> <callee-guid-hex> <count>
    v} *)

exception Parse_error of string * int  (** message, line number *)

(** {1 The unified interface}

    One first-class reader/writer pair covers all three profile kinds, so
    consumers that serialize "whatever profile this variant produced" — the
    orchestrator's artifact cache, the fuzz oracles, dump tooling — need no
    per-kind special cases. *)

type kind = Line | Probe | Ctx

type profile =
  | Line_prof of Line_profile.t
  | Probe_prof of Probe_profile.t
  | Ctx_prof of Ctx_profile.t

val kind_name : kind -> string
(** ["line"], ["probe"], ["ctx"] — stable, used in cache keys. *)

val kind_of : profile -> kind

val write : Format.formatter -> profile -> unit

val to_string : profile -> string
(** Canonical text: sorted, comment-free, byte-stable for equal profiles. *)

val name_or_guid : string Csspgo_ir.Guid.Tbl.t -> Csspgo_ir.Guid.t -> string
(** The name a flat profile's writers print for a function: its entry in
    the names table, else the guid in hex. *)

val read : kind -> string -> profile
(** Parse text known to be of [kind]. Raises {!Parse_error}. *)

val detect_kind : string -> kind option
(** Sniff the kind from the first record: [context] headers mean [Ctx],
    [function] headers with a [checksum=] field mean [Probe], without one
    [Line]. [None] when the text holds no records at all. *)

val of_string : ?kind:kind -> string -> profile
(** [read] with sniffing when [kind] is omitted; empty input raises
    {!Parse_error}. *)

val total_samples : profile -> int64
