(** The profile-quality report: one row per PGO variant (the paper's
    Table-I shape — eval cost, profiling cost, sizes, block overlap against
    the instrumentation ground truth) plus the metrics snapshot of the run
    that produced it, rendered as text or JSON.

    This module is deliberately ignorant of the pipeline's types: callers
    (the [csspgo_tool report] subcommand) flatten their outcomes into
    {!variant_row}s, which keeps [lib/obs] a leaf dependency every layer
    can link against. *)

type variant_row = {
  vr_variant : string;
  vr_eval_cycles : int64;
  vr_eval_instructions : int64;
  vr_profiling_cycles : int64;
  vr_text_size : int;
  vr_profile_size : int;
  vr_overlap : float option;
      (** block overlap vs the instrumentation truth; [None] = not
          applicable (no profile) *)
  vr_stale_funcs : int;
}

type t = {
  rp_workload : string;
  rp_rows : variant_row list;
  rp_metrics : Metrics.snapshot;
}

val to_json : t -> Json.t
val to_text : t -> string

val metrics_to_json : Metrics.snapshot -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}] — also the
    payload of the [--metrics FILE] dumps. *)
