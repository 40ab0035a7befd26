(** Profile inference ("Profi"-style, [10]): rebalance raw correlated block
    and edge counts into a flow-consistent profile by solving a min-cost
    circulation over the CFG. Measured counts are modeled as rewarded
    capacities; deviations pay per-unit penalties, so sampling noise,
    correlation gaps and small inconsistencies get smoothed while large
    measured signals are preserved. *)

val infer_func : Csspgo_ir.Func.t -> unit
(** Rewrites [Block.count] and [Block.edge_counts] with consistent values
    and sets [annotated]. Input counts are the raw measurements. *)

val consistency_errors : Csspgo_ir.Func.t -> (Csspgo_ir.Types.label * int64 * int64 * int64) list
(** Blocks where inflow / count / outflow disagree: (label, inflow, count,
    outflow). Entry inflow and exit outflow are exempt. Used by tests. *)
