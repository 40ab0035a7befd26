(** Windowed metric time series: the bridge from point-in-time
    {!Metrics.snapshot}s to continuously observed telemetry.

    A series is fed cumulative snapshots, one per collection window; each
    {!record} turns the delta against the previous snapshot into one
    {!window} of per-window counter increments (histograms contribute
    their [count]/[sum] deltas under [name/count] and [name/sum]) and the
    window's gauge readings (max-gauges are cumulative maxima, so the
    reading itself — not a delta — is the meaningful per-window value).

    Timestamps come from a {!Clock} timebase: on the fixed clock every
    window's [w_at_us] is a pure tick count, so two runs that record the
    same snapshots produce byte-identical series whatever the schedule —
    the same discipline as {!Metrics} snapshots. Counters whose names
    carry a schedule-dependent prefix ([sched.] and
    [parcorr.jobs-clamped] by default) are dropped at record time so the
    remaining windows really are schedule-independent.

    Retention is a bounded ring: only the newest [retain] windows are
    kept; older ones are evicted (counted, never silently lost).

    {!merge} obeys the same order-independent laws as the rest of the
    telemetry stack — windows align by index, counter deltas sum, gauges
    take the maximum, timestamps take the maximum — so per-shard or
    per-collector series reduce deterministically in any order:
    commutative, associative, and identity on the empty series. *)

type window = {
  w_index : int;  (** 0-based window number within the series *)
  w_at_us : int64;  (** timestamp of the record that closed the window *)
  w_dur_us : int64;
      (** time since the previous window's record; [0] for the first *)
  w_counters : (string * int) list;
      (** per-window counter deltas, sorted by name, zero deltas elided;
          histogram [count]/[sum] deltas appear as [name/count], [name/sum] *)
  w_gauges : (string * int) list;  (** gauge readings, sorted by name *)
}

type t

val create : ?retain:int -> ?clock:Clock.t -> unit -> t
(** A fresh series. [retain] (default 64, min 1) bounds the ring. [clock]
    (default a fixed clock) provides the per-record timestamps via its own
    cursor. Windows leave out the schedule-dependent instruments: the
    scheduler's own ([sched.*]) and the count of [-j] requests clamped to
    the host's cores ([parcorr.jobs-clamped]). *)

val record : t -> Metrics.snapshot -> window
(** Close one window: delta the cumulative snapshot against the previous
    one and append. The first record deltas against the all-zero origin. *)

val windows : t -> window list
(** Retained windows, ascending index. *)

val total : t -> int
(** Windows ever recorded (or merged in), including evicted ones. *)

val evicted : t -> int
(** Windows dropped by ring retention. *)

val rate : window -> string -> float option
(** Per-second rate of a counter over the window ([delta * 1e6 / dur]);
    [None] when the counter is absent or the window has zero duration. *)

val merge : t -> t -> t
(** Order-independent union: windows align by index; counters sum, gauges
    and timestamps max. The inputs are untouched. Retention of the result
    is the larger of the two rings, re-applied after the union. *)

val to_json : t -> Json.t
(** Canonical rendering: windows ascending, names sorted — byte-stable
    for equal series. *)
