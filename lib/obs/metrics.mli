(** A typed metrics registry: counters, max-gauges, and log2-bucket
    histograms, sharded per domain so the hot path takes no locks.

    A handle obtained once (at stage start) is bumped many times; each bump
    is one [Atomic.fetch_and_add] on the shard indexed by the calling
    domain's id — no allocation, no lock, no false ordering between
    domains. The {!null} registry hands out inert handles whose bump is a
    single pattern match, so instrumented code costs nothing when telemetry
    is off.

    Snapshots merge shards with order-independent operations only —
    counters and histogram buckets sum, gauges take the maximum — so a
    snapshot is a pure function of the multiset of observations, not of
    the schedule that produced them. Name lists are sorted.

    The registry is the one telemetry handle of the library: every layer
    takes it as [?obs], and a run's {!Trace} rides on it, so counters and
    spans reach a call through the same parameter. *)

type t

val null : t
(** The disabled registry: registration returns no-op handles, [enabled]
    is false, snapshots are empty, and no trace is attached. *)

val create : ?trace:Trace.t -> unit -> t
(** A live registry, with a power-of-two shard count of at least 8 and at
    least [Domain.recommended_domain_count ()]. [trace] is the run's span
    trace, handed back by {!trace}. *)

val enabled : t -> bool

val trace : t -> Trace.t option
(** The trace given to {!create}; [None] on {!null}. *)

(** {1 Instruments} *)

type counter

val counter : t -> string -> counter
(** Find-or-register; same name returns the same instrument. *)

val bump : counter -> int -> unit
val incr : counter -> unit

type gauge

val gauge : t -> string -> gauge

val observe_gauge : gauge -> int -> unit
(** Retains the maximum observed value (per shard; merged at snapshot).
    The resting value is 0 and negative observations are clamped to it
    (i.e. ignored), so a snapshot never reports below 0 and the shard
    merge is a pure max over [{0} ∪ observations]. *)

type histogram

val histogram : t -> string -> histogram

val observe : histogram -> int -> unit
(** Record one observation of value [v]: bucket 0 collects [v <= 0],
    bucket [k >= 1] collects [2^(k-1) <= v < 2^k]. *)

val observe_n : histogram -> int -> int -> unit
(** [observe_n h v n] records [n] observations of [v] in one bump — the
    shape for merging a locally accumulated histogram at stage finish. *)

val bucket_lo : int -> int
(** Lower bound of a bucket index (0 for bucket 0, else [2^(k-1)]). *)

(** {1 Snapshots} *)

type hist_summary = {
  h_count : int;
  h_sum : int;
  h_nonzero : (int * int) list;  (** (bucket index, count), ascending *)
}

type snapshot = {
  s_counters : (string * int) list;   (** sorted by name *)
  s_gauges : (string * int) list;     (** sorted by name *)
  s_histograms : (string * hist_summary) list;  (** sorted by name *)
}

val snapshot : t -> snapshot
(** Merge all shards. Deterministic for a fixed observation multiset. *)

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> int option
val find_histogram : snapshot -> string -> hist_summary option
