(** The release train: the continuous-profiling loop iterated over
    successive releases N → N+1 → … → N+k.

    Each generation's source drifts from its predecessor's
    ({!Csspgo_workloads.Drift}); a fleet window ({!Sim.run}) samples the
    versions still in flight (the new canary plus up to [t_skew] older
    generations, each serving its own cohort) and merges them onto the
    canary. The carried profile then folds in history: the previous
    generation's carried profile is forward-matched onto the new source and
    weighted-merged with the fresh window (history 1 : fresh 3), and the
    canary rebuilds through {!Csspgo_core.Driver.Plan.make_with_profile}.
    Drift edits are seeded per generation, so a train is reproducible.
    Per-generation speedup is measured against a no-PGO build of the same
    source; profile quality against an instrumentation-PGO truth run when
    [t_overlap] is set. *)

type config = {
  t_generations : int;  (** releases simulated, ≥ 1 (generation 0 first) *)
  t_edits : int;  (** drift edits applied per release *)
  t_edit_schedule : int list;
      (** per-transition override of [t_edits]: entry [g-1] is the edit
          count between generations [g-1] and [g]; missing entries fall
          back to [t_edits]. [[]] (the default) = uniform drift. A
          mid-train drift injection is one large entry — the anomaly the
          health layer's EWMA detector must flag. *)
  t_skew : int;  (** old generations still in flight alongside the canary *)
  t_cohort : int;  (** instances per in-flight version *)
  t_overlap : bool;  (** run the instr-PGO truth build for block overlap *)
  t_fleet : Sim.config;  (** collection-window knobs (shape, duty, shards) *)
}

val default : config
(** 3 generations, 2 edits, skew 1, cohort 2, overlap on, {!Sim.default}
    window. *)

type generation = {
  g_id : int;
  g_source : string;  (** this release's (drifted) MiniC source *)
  g_fleet : Sim.outcome;  (** the collection window on this release *)
  g_carry : Csspgo_core.Stale_match.report option;
      (** forward-matching of the carried profile; [None] at generation 0 *)
  g_profile : Csspgo_profile.Text_io.profile;
      (** the carried profile the release built with *)
  g_outcome : Csspgo_core.Driver.outcome;  (** the PGO rebuild *)
  g_nopgo : Csspgo_core.Driver.eval;  (** no-PGO baseline, same source *)
  g_speedup : float;  (** no-PGO cycles / PGO cycles *)
  g_overlap : float option;  (** vs instr-PGO truth ([t_overlap] only) *)
  g_health : Csspgo_obs.Health.window_report option;
      (** this generation's health window (when [?health] was given) *)
}

val run :
  ?obs:Csspgo_obs.Metrics.t ->
  ?series:Csspgo_obs.Series.t ->
  ?health:Csspgo_obs.Health.tracker ->
  config ->
  Csspgo_core.Driver.workload ->
  generation list
(** Generation 0 first. Deterministic for equal inputs, independent of
    [t_fleet.f_jobs].

    [obs] is handed to every generation's {!Sim.run}. When [series] or
    [health] is given, each generation closes one telemetry window from
    the cumulative snapshot of {!Sim.registry}[ ?obs ~windows:true ()]
    — a private live registry when [obs] is not live — and the health
    window carries the window-over-window
    {!Csspgo_core.Quality.profile_overlap} of consecutive fresh fleet
    profiles — generation 0 has no predecessor, so its overlap indicator
    reports no data. On a fixed-clock setup the resulting report is
    byte-identical at any [t_fleet.f_jobs]. *)
