(** AutoFDO-style flat sample profile: per function, counts keyed by
    (function-relative line, discriminator), plus per-callsite callee target
    counts and a head (entry) count. This is the profile shape produced by
    DWARF-based correlation. Its entries are {!Counts}' layout over the
    line key; the operations below are {!Counts}' at {!shape}, and the
    canonical entry order is {!Counts.sorted_funcs}, {!Counts.sorted} and
    {!Counts.sorted_calls}. *)

type key = int * int  (** line offset, discriminator *)

type fentry = {
  mutable fe_total : int64;  (** sum of all location counts *)
  mutable fe_head : int64;   (** entry count (branches into the function) *)
  fe_lines : (key, int64) Hashtbl.t;
  fe_calls : (key, (Csspgo_ir.Guid.t, int64) Hashtbl.t) Hashtbl.t;
}

type t = {
  funcs : fentry Csspgo_ir.Guid.Tbl.t;
  names : string Csspgo_ir.Guid.Tbl.t;  (** guid -> symbol name, for reports *)
}

val shape : (fentry, key) Counts.shape
(** Where an entry holds the layout: [fe_lines], [fe_calls], [fe_head],
    [fe_total]. *)

val create : unit -> t
val get : t -> Csspgo_ir.Guid.t -> fentry option
val get_or_add : t -> Csspgo_ir.Guid.t -> name:string -> fentry
val add_line : fentry -> key -> int64 -> unit
val set_line_max : fentry -> key -> int64 -> unit
(** AutoFDO max-heuristic: keep the maximum count seen for a location. *)

val add_call : fentry -> key -> Csspgo_ir.Guid.t -> int64 -> unit
val line_count : fentry -> key -> int64
val call_counts : fentry -> key -> (Csspgo_ir.Guid.t * int64) list
val total_samples : t -> int64
