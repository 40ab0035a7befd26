(** Missing-frame inference for tail-call elimination (§III.B).

    TCE replaces the caller's frame, so stack walks skip the tail-calling
    function(s). The inferrer builds a dynamic call graph of *tail-call
    edges only* from the LBR streams (a branch whose source instruction is a
    tail call), then, given an observed gap — a call site whose static
    callee [from_func] does not match the next physical frame's function
    [to_func] — searches for a unique tail-call path connecting them. A
    unique path fills in the missing frames; multiple candidate paths make
    the inference fail for that gap (the paper reports >2/3 recovered in
    practice). *)

type t

type builder
(** Online edge-table construction: the tail-call graph is built from the
    LBR stream *while profiling runs*, so no sample needs to be kept for a
    second pass. The table must be complete before [resolve] is first
    called — path uniqueness is sensitive to every edge — which is why
    context reconstruction replays a compact sample log only after the
    builder has seen the whole stream. *)

val start : ?obs:Csspgo_obs.Metrics.t -> Csspgo_profgen.Bindex.t -> builder

val feed : builder -> lbr:int array -> lbr_len:int -> unit
(** Consume one sample's LBR entries, in {!Csspgo_vm.Machine.sink}'s flat
    layout (copies nothing; scratch-safe). *)

val finish : builder -> t
(** Also bumps the [missing-frame.edges] counter on [obs] (once, with the
    final edge count). *)

val n_edges : t -> int

val edges : t -> (Csspgo_ir.Guid.t * int * Csspgo_ir.Guid.t) list
(** Every tail-call edge as (calling function, call address, target
    function), sorted. *)

val union : t -> t -> t
(** Merge two edge tables (inputs untouched). The union of per-shard
    tables equals the table one builder fed the whole stream would hold,
    as an edge {e set}; per-function edge-list order may differ, which
    cannot change any {!resolve} verdict — resolution enumerates all
    acyclic paths and succeeds only on uniqueness, an order-independent
    property. This is the sharded correlator's reduction for the
    tail-call graph. *)

val resolve :
  t -> from_func:Csspgo_ir.Guid.t -> to_func:Csspgo_ir.Guid.t -> int list option
(** The unique chain of tail-call instruction addresses leading from
    [from_func] to (a tail call targeting) [to_func]; [Some []] when
    [from_func = to_func] (no gap), [None] when no path or multiple paths
    exist. Search depth is bounded. *)
