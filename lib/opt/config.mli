(** Optimization pipeline configuration.

    Every optimized build runs the one -O2 pipeline (inlining across
    modules, LICM, unrolling, if-conversion, tail duplication and tail
    merging); what varies is the inliner's mode and probe strength.

    The probe knob implements the paper's "flexible framework" trade-off:
    pseudo-probes always block code *merge* (their different ids make merged
    blocks non-identical), while the fine-tuned default leaves if-conversion
    and empty-block forwarding unblocked to keep run-time overhead near zero
    (§III.A). Setting [probes_strong] makes probes full optimization
    barriers — higher profile accuracy, higher overhead. *)

type inline_mode =
  | Inline_none
  | Inline_static        (** size-heuristic only (no profile) *)
  | Inline_profile       (** bottom-up, hotness-driven *)

type t = {
  optimize : bool;              (** false = initial cleanup only, true = full pipeline *)
  inline_mode : inline_mode;
  probes_strong : bool;         (** probes block if-convert & forwarding too *)
  verify_between_passes : bool;
}

val hot_count : int64
(** Profile count (32) at which a call site, loop header or join block
    counts as hot for profile-driven inlining, unrolling and tail
    duplication. *)

val o0 : t
val o2 : t
(** Default server pipeline: profile-aware inlining, all passes on. *)

val o2_nopgo : t
(** Like [o2] but with static inlining only (profiling build baseline). *)
