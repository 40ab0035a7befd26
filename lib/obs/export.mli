(** OpenMetrics/Prometheus text exposition for snapshots and series, so a
    live fleet can be scraped by stock monitoring instead of a bespoke
    JSON consumer.

    Instrument names are sanitized into the OpenMetrics grammar (every
    character outside [[a-zA-Z0-9_:]] becomes [_]; histogram-derived
    series names gain the standard [_total]/[_bucket]/[_sum]/[_count]
    suffixes) and prefixed with ["csspgo_"]. Counters expose as
    cumulative [counter] families, max-gauges as [gauge], and log2-bucket
    histograms as cumulative [histogram] families whose [le] bounds are
    the buckets' inclusive upper bounds ([2^k - 1], [+Inf] last).

    Families are emitted in sorted name order and the exposition ends
    with the [# EOF] terminator, so equal snapshots render byte-identically
    — the exporter determinism contract matches {!Json}'s. *)

val snapshot : Metrics.snapshot -> string
(** One-point exposition of a cumulative snapshot. *)

val series : Series.t -> string
(** Exposition of a windowed series: counters re-accumulate across the
    retained windows into cumulative samples, one timestamped point per
    window ([w_at_us] in seconds); gauges expose each window's reading. *)
