(** LBR sample aggregation: consecutive LBR entries bound linear execution
    ranges ([prev.target, cur.source]), which give basic-block-level counts;
    the entries themselves give edge (branch) counts. This is the common
    front half of both AutoFDO and CSSPGO profile generation.

    Aggregation is online: [create] an empty aggregate and [feed] it each
    sample's LBR as a recorded sample log replays. Counts are unboxed
    ints in the shared pair-keyed {!Csspgo_support.Itab}: a bump per LBR
    entry allocates nothing. *)

type agg
(** Range counts (each range [\[begin, end\]] inclusive) and branch
    counts (source, target). *)

val create : unit -> agg

val feed : agg -> lbr:int array -> lbr_len:int -> unit
(** Consume one sample's LBR (the first [lbr_len] entries, oldest first,
    in {!Csspgo_vm.Machine.sink}'s flat layout).
    Reads only ints out of the scratch — safe against buffer reuse. *)

val iter_ranges : (int -> int -> int -> unit) -> agg -> unit
(** [f lo hi n] for every range [\[lo, hi\]] seen [n] times, in no
    particular order. *)

val iter_branches : (int -> int -> int -> unit) -> agg -> unit
(** [f src tgt n] for every branch seen [n] times, in no particular order. *)

val merge : agg -> agg -> agg
(** A fresh aggregate holding the sum of both (inputs untouched). Count
    addition is commutative and associative, so merging per-shard or
    per-slice aggregates in any order gives exactly the counts one [feed]
    pass over the whole stream would. *)

val addr_totals : index:Bindex.t -> agg -> int Csspgo_support.Itab.t
(** Expand ranges to per-instruction-address execution totals over the
    index's binary, keyed [(addr, 0, 0)]; an address never executed finds
    0. A range whose start maps to no instruction adds nothing. *)

val iter_calls :
  index:Bindex.t ->
  int Csspgo_support.Itab.t ->
  (Csspgo_codegen.Mach.inst -> Csspgo_ir.Guid.t -> int -> unit) ->
  unit
(** [f inst callee total] for every call or tail call whose total in
    {!addr_totals}' table is positive, in instruction order. *)

val iter_heads :
  index:Bindex.t -> agg -> (Csspgo_codegen.Mach.bfunc -> int -> unit) -> unit
(** [f func n] for every branch seen [n] times that lands on a function's
    first instruction: its head count. *)
