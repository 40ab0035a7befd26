(** Profile-health scoring: per-window indicators derived from the
    counters the pipeline already emits, each scored against fixed limits
    into ok/warn/crit, plus an EWMA-baseline anomaly detector that turns
    window-over-window regressions into typed alerts.

    The indicators (all ratios in [0, 1], computed from the snapshot
    delta of the window), each with its warn and crit limits:

    - [collector.drop-rate]: [collector.dropped-blobs / collector.batches]
      — shipped batches lost to corruption (high is bad: warn at or above
      0.01, crit at or above 0.05);
    - [corr.hit-rate]: matched fraction of correlation work, pooled over
      the probe ([probe-corr.ranges] vs [ranges-unmatched]) and DWARF
      ([dwarf-corr.addrs] vs [addrs-unmapped]) paths (low is bad: warn at
      or below 0.95, crit at or below 0.80);
    - [ctx.inferred-share]: [ctx.inferred-frames / ctx.samples] — how much
      of the context reconstruction rests on inferred missing frames
      rather than observed stacks (high is bad: 0.30, 0.60);
    - [stale.recovery]: [stale.counts-recovered / (recovered + dropped)]
      — the count-conservation split of stale matching (low is bad: 0.80,
      0.50);
    - [profile.overlap]: the window-over-window profile overlap handed in
      by the caller (this leaf library holds no profile types; the fleet
      computes it via [Quality.profile_overlap]) (low is bad: 0.95, 0.90).

    An indicator with no data this window (zero denominator, or no
    [?overlap]) reports [None] and scores [Ok].

    The anomaly detector keeps one EWMA baseline per indicator (smoothing
    factor 0.3). A window whose value deviates from the baseline by more
    than 0.1 in the indicator's bad direction {e and} scores worse than
    [Ok] raises one {!alert} carrying the scored level; the baseline then
    absorbs the new value, so a persistent plateau alerts once at the
    transition, not every window — the drift-injection signature the
    bench asserts on.
    Alerts are also emitted as instants on an optional trace track.

    Reports render as canonical JSON (byte-stable, reparseable) and
    human-readable text. Like snapshots and series, everything here is a
    pure function of the observed windows, so fixed-clock fleet runs
    produce byte-identical reports at any [-j]. *)

type level = Ok | Warn | Crit

val worst : level -> level -> level

type indicator = {
  in_name : string;
  in_value : float option;  (** [None] = no data this window *)
  in_level : level;
  in_detail : string;  (** the numerator/denominator behind the ratio *)
}

type alert = {
  al_window : int;
  al_indicator : string;
  al_level : level;  (** [Warn] or [Crit] *)
  al_value : float;
  al_baseline : float;  (** the EWMA the value regressed from *)
}

type window_report = {
  wr_index : int;
  wr_indicators : indicator list;  (** fixed order, as listed above *)
  wr_level : level;  (** worst indicator level *)
  wr_alerts : alert list;
}

type report = {
  hp_windows : window_report list;  (** ascending index *)
  hp_alerts : alert list;  (** all alerts, window order *)
  hp_level : level;  (** worst window level *)
}

type tracker

val create : ?track:Trace.track -> unit -> tracker
(** Each alert emits a [health.<level>:<indicator>] instant on [track]
    when given. *)

val observe : ?overlap:float -> tracker -> Metrics.snapshot -> window_report
(** Close one health window from the cumulative snapshot (delta'd against
    the previous observation, like {!Series.record}). *)

val report : tracker -> report

val report_to_json : report -> Json.t
(** Canonical; reparses under {!Json.parse_exn}. *)

val report_to_text : report -> string
