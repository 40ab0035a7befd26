(** Pseudo-probe based flat profile: per function, counts keyed by probe id
    (copies of a duplicated probe are summed at correlation time), callsite
    target counts keyed by callsite-probe id, and the CFG checksum recorded
    when probes were inserted. A checksum mismatch at annotation time means
    the function's CFG changed since profiling (source drift, §III.A) and
    the profile must be rejected for that function. Its entries, and every
    {!Ctx_profile} node's, are {!Counts}' layout over the probe id; the
    operations below are {!Counts}' at {!shape}, and the canonical entry
    order is {!Counts.sorted_funcs}, {!Counts.sorted} and
    {!Counts.sorted_calls}. *)

type fentry = {
  mutable fe_total : int64;
  mutable fe_head : int64;
  fe_probes : (int, int64) Hashtbl.t;
  fe_calls : (int, (Csspgo_ir.Guid.t, int64) Hashtbl.t) Hashtbl.t;
  mutable fe_checksum : int64;
}

type t = {
  funcs : fentry Csspgo_ir.Guid.Tbl.t;
  names : string Csspgo_ir.Guid.Tbl.t;
}

val shape : (fentry, int) Counts.shape
(** Where an entry holds the layout: [fe_probes], [fe_calls], [fe_head],
    [fe_total]. [make] starts the checksum at 0 (absent). *)

val create : unit -> t
val get : t -> Csspgo_ir.Guid.t -> fentry option
val get_or_add : t -> Csspgo_ir.Guid.t -> name:string -> fentry
val add_probe : fentry -> int -> int64 -> unit
val add_call : fentry -> int -> Csspgo_ir.Guid.t -> int64 -> unit
val probe_count : fentry -> int -> int64
val call_counts : fentry -> int -> (Csspgo_ir.Guid.t * int64) list
val total_samples : t -> int64
