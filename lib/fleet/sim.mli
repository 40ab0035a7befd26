(** One fleet collection window, end to end: build every binary version in
    flight, serve the request stream across the instance pool, collect
    sample batches into the sharded {!Collector}, correlate each version's
    merged log against its own build, stale-route the old versions' profiles
    onto the newest version, and weighted-merge everything into the one
    profile the next release builds with.

    Version skew model: a release fleet rarely runs one binary. The
    [versions] list is the mix in flight — typically the canary (newest,
    the rebuild target) plus N-1 and N-2 still draining. Each version's
    instance cohort serves its own full copy of the request stream
    (cohorts see representative traffic), contiguously partitioned across
    the cohort so that at duty 1.0 a cohort's reassembled log is
    byte-identical to a single instance serving the whole stream — the
    skew-0 fleet-equals-baseline oracle. *)

type version = {
  v_id : int;  (** release generation; the max id is the rebuild target *)
  v_source : string;  (** this version's MiniC source *)
  v_weight : int64;  (** cross-version merge weight (e.g. traffic share) *)
  v_instances : int;  (** cohort size serving this version *)
}

type config = {
  f_shards : int;  (** collector shards *)
  f_duty : float;  (** per-request sampling probability, each instance *)
  f_batch_requests : int;  (** instance batch flush interval *)
  f_request_copies : int;  (** stream = workload train inputs × this *)
  f_jobs : int;  (** scheduler domains for serve/decode/correlate *)
  f_shape : Build.shape;
  f_options : Csspgo_core.Driver.options;
  f_seed : int64;  (** root seed for per-instance duty gating *)
}

val default : config
(** 2 shards, duty 1.0, batch 4, 1 copy, 1 job, [Ctx] shape, driver
    default options, seed 1. *)

type per_version = {
  pv_id : int;
  pv_instances : int;
  pv_requests : int;
  pv_sampled : int;  (** requests that ran under the sampler *)
  pv_samples : int;
  pv_batches : int;  (** batches shipped (empty ones are not) *)
  pv_bytes : int;  (** CSLG bytes shipped *)
  pv_profile : Csspgo_profile.Text_io.profile;
      (** correlated on this version's own build, before stale routing *)
  pv_stale : Csspgo_core.Stale_match.report option;
      (** the routing onto the target; [None] for the target itself *)
}

type outcome = {
  fs_profile : Csspgo_profile.Text_io.profile;
      (** the weighted cross-version merge, anchored on the target *)
  fs_flat : Csspgo_profile.Probe_profile.t option;
      (** merged flat baseline ([Ctx] shape only) *)
  fs_target : Build.built;  (** the newest version's build *)
  fs_per_version : per_version list;  (** sorted by version id *)
  fs_requests : int;
  fs_sampled : int;
  fs_samples : int;
  fs_batches : int;
  fs_bytes : int;
  fs_cycles : int64;  (** total serving cycles across the fleet *)
}

(** {2 The collection path}

    Serving and ingest as every fleet window runs them: {!run} serves one
    unlabeled stream per version, [Tenancy.collect] one labeled mix. *)

type served = {
  sv_version : int;
  sv_report : Instance.report;
  sv_batches : Instance.batch list;  (** shipped, in [b_seq] order *)
}

val serve :
  ?obs:Csspgo_obs.Metrics.t ->
  jobs:int ->
  duty:float ->
  batch_requests:int ->
  seed:int64 ->
  pmu:Csspgo_vm.Machine.pmu ->
  entry:string ->
  (int * Csspgo_codegen.Mach.binary * int) list ->
  (Csspgo_core.Driver.run_spec * Csspgo_support.Label_set.t) list ->
  served list
(** [serve cohorts requests]: every [(version, binary, n)] cohort serves
    its own copy of [requests], partitioned contiguously over [n]
    instances so the blocks concatenate back to the stream. Instance
    ids run fleet-wide in cohort order, and instance [id] gates its
    requests ({!Instance.serve_labeled}) with seed
    [Fnv.int64 (Fnv.int seed id) version]. The result is in instance
    order at any [jobs]. *)

val ingest : ?obs:Csspgo_obs.Metrics.t -> shards:int -> served list -> Collector.t
(** A fresh collector on [obs] with every served batch ingested. *)

val total : served list -> Instance.report * int
(** The reports summed, and the CSLG bytes of the batches. *)

(** {2 One collection window} *)

val registry :
  ?obs:Csspgo_obs.Metrics.t -> windows:bool -> unit -> Csspgo_obs.Metrics.t
(** The registry a run that closes telemetry windows reports to: [obs]
    when it is live or when [windows] is false, else a private live
    registry, so a window always has counters to observe. {!run} and
    [Train.run] both apply it. *)

val run :
  ?obs:Csspgo_obs.Metrics.t ->
  ?series:Csspgo_obs.Series.t ->
  ?health:Csspgo_obs.Health.tracker ->
  config ->
  workload:Csspgo_core.Driver.workload ->
  versions:version list ->
  outcome
(** [versions] must be non-empty with distinct ids and positive cohorts,
    and the config's shard count, request copies and batch size positive
    with a duty in [0, 1]; otherwise [Invalid_argument] naming the field,
    before any build. Deterministic: equal inputs yield a byte-identical [fs_profile]
    whatever [f_jobs] is. [obs] is the run's one telemetry handle: every
    layer below (scheduler, collector, correlation kernel, stale
    matcher) reports to it, the run adds the [fleet.*] counters, and
    its trace gets per-phase spans (tid 0, ["fleet-build"],
    ["fleet-serve"], ["fleet-drain"], ["fleet-correlate"],
    ["fleet-merge"]: the stale routing and the cross-version merge). A
    collection window is a telemetry window: when
    [series] or [health] is given, the run closes exactly one
    {!Csspgo_obs.Series} window / {!Csspgo_obs.Health} window from the
    cumulative snapshot of {!registry}[ ?obs ~windows:true ()] at the
    end. *)
