(** Block layout via Ext-TSP-style greedy chain merging (Newell & Pupyrev
    [15], simplified): heavy CFG edges become fallthroughs, chains are
    concatenated by decreasing edge weight, and the final order places the
    entry chain first and the rest by hotness density.

    With [split] and a profile, never-executed blocks are exiled to the cold
    part (function splitting), shrinking the hot text footprint. *)

type t = {
  hot : Csspgo_ir.Types.label list;
  cold : Csspgo_ir.Types.label list;
}

val order : split:bool -> Csspgo_ir.Func.t -> t
(** Hot-path DFS placement: linear, stable under count perturbations; used
    as the fallback for very large functions and available through
    [Emit.options.layout = `Hot_path]. *)

val order_ext_tsp : split:bool -> Csspgo_ir.Func.t -> t
(** Full Ext-TSP greedy chain merging [15] — the default layout: repeatedly
    merge the pair of chains with the highest incremental score gain, with
    the entry chain pinned at the front. Falls back to [order] above
    [ext_tsp_max_blocks] blocks. Compared against the DFS placement in the
    ablation bench. *)

val ext_tsp_score : Csspgo_ir.Func.t -> Csspgo_ir.Types.label list -> float
(** The Ext-TSP objective of a given order: weighted sum over edges, 1.0 per
    fallthrough, 0.1 per short forward jump (< 1024 B est.), 0.05 per short
    backward jump, 0 otherwise. Used to sanity-check layout quality. *)
