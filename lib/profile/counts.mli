(** The one count layout under every sampled profile entry: a count table
    keyed by ['k], a call table (['k] -> callee -> count), a head (entry)
    count and a total, the sum of the count table. {!Line_profile} keys it
    by (line offset, discriminator), {!Probe_profile} and every
    {!Ctx_profile} node by probe id — AutoFDO's sample record with the
    probe id where the line key goes.

    Each shape keeps its own entry record and field names; a {!shape}
    says where that record holds the four parts, so every operation below
    has one definition for all of them. Accumulation keeps the total equal
    to the sum of the count table. *)

type 'k calls = ('k, (Csspgo_ir.Guid.t, int64) Hashtbl.t) Hashtbl.t

type ('fe, 'k) shape = {
  make : ('k, int64) Hashtbl.t -> 'k calls -> 'fe;
      (** an entry over the two tables, head and total 0 *)
  counts : 'fe -> ('k, int64) Hashtbl.t;
  calls : 'fe -> 'k calls;
  total : 'fe -> int64;
  set_total : 'fe -> int64 -> unit;
  head : 'fe -> int64;
  set_head : 'fe -> int64 -> unit;
}

val fresh : ('fe, 'k) shape -> int -> 'fe
(** An empty entry whose count table starts at the given size and its
    call table at a quarter of it. The size fixes the tables' iteration
    order, which the pre-inliner and the probe matcher read: readers and
    correlators add entries at 32 ({!get_or_add}), merges and trie nodes
    at 16. *)

val get_or_add :
  ('fe, 'k) shape ->
  funcs:'fe Csspgo_ir.Guid.Tbl.t ->
  names:string Csspgo_ir.Guid.Tbl.t ->
  Csspgo_ir.Guid.t ->
  name:string ->
  'fe
(** A flat profile's entry for the function, added at size 32 under
    [name] if absent. *)

val add : ('fe, 'k) shape -> 'fe -> 'k -> int64 -> unit
(** Add to a key's count and to the total. *)

val add_call : ('fe, 'k) shape -> 'fe -> 'k -> Csspgo_ir.Guid.t -> int64 -> unit
(** Add to a call key's count for one callee. The total is unchanged. *)

val count : ('fe, 'k) shape -> 'fe -> 'k -> int64
(** A key's count, 0 when absent. *)

val call_counts : ('fe, 'k) shape -> 'fe -> 'k -> (Csspgo_ir.Guid.t * int64) list
(** A call key's [(callee, count)] records, by callee. *)

val merge : ('fe, 'k) shape -> into:'fe -> weight:int64 -> 'fe -> unit
(** Add [weight] times every count, call count and the head of the source
    into [into], in the source tables' iteration order; [into]'s total
    follows. Shape metadata (checksums, names) is the caller's. *)

val total_samples : ('fe, 'k) shape -> 'fe Csspgo_ir.Guid.Tbl.t -> int64
(** The sum of a flat profile's totals. *)

(** The canonical entry order, shared by {!Text_io}, {!Binary_io},
    {!Fingerprint} and the stale matcher's line walk, so equal profiles
    serialize and fingerprint identically. *)

val sorted_funcs : 'fe Csspgo_ir.Guid.Tbl.t -> (Csspgo_ir.Guid.t * 'fe) list
(** Every function, by guid. *)

val sorted : ('fe, 'k) shape -> 'fe -> ('k * int64) list
(** [(key, count)], by key. *)

val sorted_calls : ('fe, 'k) shape -> 'fe -> ('k * Csspgo_ir.Guid.t * int64) list
(** [(call key, callee, count)], by key, then callee. *)
