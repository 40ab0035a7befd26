(** A small OCaml 5 [Domain]-based work-stealing scheduler.

    Tasks are distributed round-robin over per-worker deques; a worker pops
    from the front of its own deque and, when empty, steals from the back of
    its siblings'. The task set is fixed up front (tasks never spawn tasks),
    so draining every deque is a complete termination condition.

    Determinism contract: [map] places each result at its input's index, so
    for *independent* tasks (no shared mutable state beyond thread-safe
    memoization) the result list is identical whatever [jobs] is — parallel
    schedules only change completion order, never the merge order. *)

val map :
  ?obs:Csspgo_obs.Metrics.t ->
  jobs:int ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [map ~jobs f xs] evaluates [f] on every element of [xs] using up to
    [jobs] domains (clamped to [1 .. length xs]; [jobs <= 1] runs serially
    in the calling domain, spawning nothing). If any application raises,
    the exception of the smallest input index is re-raised after all
    workers finish.

    [obs] receives [sched.tasks] (one per task run), [sched.steals]
    (successful steals — schedule-dependent, always 0 serially) and the
    [sched.queue-depth] gauge (max initial deque fill). Its trace gets one
    [domain-N] track per worker with a [task-i] span per task — but only on
    wall-clock traces: worker assignment is schedule-dependent, so
    deterministic (fixed-clock) traces omit scheduler tracks entirely. *)

val tree_reduce :
  ?obs:Csspgo_obs.Metrics.t ->
  jobs:int ->
  ('a -> 'a -> 'a) ->
  'a list ->
  'a option
(** [tree_reduce ~jobs f xs] combines [xs] pairwise in rounds — round one
    merges elements (0,1), (2,3), ..., each round via {!map} — until one
    value remains; [None] on the empty list. The reduction tree is a pure
    function of [List.length xs], and {!map} places results by input
    index, so the result is identical whatever [jobs] is, even for a
    non-commutative [f] (operands keep list order). An associative [f]
    makes the result equal to a left fold; the fleet merge reduction runs
    log-concatenation and profile merging through this. *)
