module Vm = Csspgo_vm
module P = Csspgo_profile
module Obs = Csspgo_obs
module Core = Csspgo_core
module D = Core.Driver
module S = Csspgo_sched.Scheduler
module Fnv = Csspgo_support.Fnv
module Label_set = Csspgo_support.Label_set

type version = {
  v_id : int;
  v_source : string;
  v_weight : int64;
  v_instances : int;
}

type config = {
  f_shards : int;
  f_duty : float;
  f_batch_requests : int;
  f_request_copies : int;
  f_jobs : int;
  f_shape : Build.shape;
  f_options : D.options;
  f_seed : int64;
}

let default =
  {
    f_shards = 2;
    f_duty = 1.0;
    f_batch_requests = 4;
    f_request_copies = 1;
    f_jobs = 1;
    f_shape = Build.Ctx;
    f_options = D.default_options;
    f_seed = 1L;
  }

type per_version = {
  pv_id : int;
  pv_instances : int;
  pv_requests : int;
  pv_sampled : int;
  pv_samples : int;
  pv_batches : int;
  pv_bytes : int;
  pv_profile : P.Text_io.profile;
  pv_stale : Core.Stale_match.report option;
}

type outcome = {
  fs_profile : P.Text_io.profile;
  fs_flat : P.Probe_profile.t option;
  fs_target : Build.built;
  fs_per_version : per_version list;
  fs_requests : int;
  fs_sampled : int;
  fs_samples : int;
  fs_batches : int;
  fs_bytes : int;
  fs_cycles : int64;
}

(* Contiguous block partition: n items over k cohort slots, first (n mod k)
   slots one larger. Concatenating the blocks in slot order reproduces the
   input — the property the skew-0 log identity rides on. *)
let partition k xs =
  let n = List.length xs in
  let base = n / k and extra = n mod k in
  let rec take acc n xs =
    if n = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> (List.rev acc, [])
      | x :: tl -> take (x :: acc) (n - 1) tl
  in
  let rec go i xs =
    if i = k then []
    else
      let sz = base + if i < extra then 1 else 0 in
      let block, rest = take [] sz xs in
      block :: go (i + 1) rest
  in
  go 0 xs

(* --- the collection path ------------------------------------------------ *)

type served = {
  sv_version : int;
  sv_report : Instance.report;
  sv_batches : Instance.batch list;
}

(* Instance ids are assigned fleet-wide in (cohort, slot) order; each
   instance accumulates its batches locally so the parallel stage never
   touches the collector. *)
let serve ?obs ~jobs ~duty ~batch_requests ~seed ~pmu ~entry cohorts requests =
  let instances =
    List.concat_map
      (fun (version, bin, n) ->
        List.map (fun block -> (version, bin, block)) (partition n requests))
      cohorts
  in
  S.map ?obs ~jobs
    (fun (id, (version, bin, block)) ->
      let batches = ref [] in
      let report =
        Instance.serve_labeled
          {
            Instance.ic_instance = id;
            ic_version = version;
            ic_duty = duty;
            ic_batch_requests = batch_requests;
            ic_seed = Fnv.int64 (Fnv.int seed id) (Int64.of_int version);
          }
          ~pmu ~bin ~entry ~requests:block
          ~ship:(fun batch -> batches := batch :: !batches)
      in
      { sv_version = version; sv_report = report; sv_batches = List.rev !batches })
    (List.mapi (fun id inst -> (id, inst)) instances)

(* Ingest order is deterministic (instance order) but drain re-sorts
   anyway, so arrival order never matters. *)
let ingest ?obs ~shards served =
  let collector = Collector.create ?obs ~shards () in
  List.iter (fun s -> List.iter (Collector.ingest collector) s.sv_batches) served;
  collector

(* The served instances' reports summed, and the CSLG bytes they shipped. *)
let total served =
  let sum f = List.fold_left (fun a s -> a + f s.sv_report) 0 served in
  let bytes s = List.fold_left (fun a b -> a + String.length b.Instance.b_blob) 0 s.sv_batches in
  ( {
      Instance.ir_batches = sum (fun r -> r.Instance.ir_batches);
      ir_requests = sum (fun r -> r.Instance.ir_requests);
      ir_sampled = sum (fun r -> r.Instance.ir_sampled);
      ir_samples = sum (fun r -> r.Instance.ir_samples);
      ir_cycles = List.fold_left (fun a s -> Int64.add a s.sv_report.ir_cycles) 0L served;
    },
    List.fold_left (fun a s -> a + bytes s) 0 served )

(* --- one collection window --------------------------------------------- *)

let validate cfg versions =
  if versions = [] then invalid_arg "Sim.run: empty version list";
  if cfg.f_shards <= 0 then invalid_arg "Sim.run: f_shards must be positive";
  if cfg.f_request_copies <= 0 then
    invalid_arg "Sim.run: f_request_copies must be positive";
  if cfg.f_batch_requests <= 0 then
    invalid_arg "Sim.run: f_batch_requests must be positive";
  if not (cfg.f_duty >= 0.0 && cfg.f_duty <= 1.0) then
    invalid_arg "Sim.run: f_duty must be in [0, 1]";
  let ids = List.map (fun v -> v.v_id) versions in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Sim.run: duplicate version ids";
  List.iter
    (fun v ->
      if v.v_instances <= 0 then invalid_arg "Sim.run: empty version cohort";
      if Int64.compare v.v_weight 0L < 0 then
        invalid_arg "Sim.run: negative version weight")
    versions

(* Telemetry windows need counters to observe, so a run that closes one
   without a live registry gets a private one. *)
let registry ?(obs = Obs.Metrics.null) ~windows () =
  if windows && not (Obs.Metrics.enabled obs) then Obs.Metrics.create () else obs

let run ?obs ?series ?health cfg ~(workload : D.workload) ~versions =
  validate cfg versions;
  let windows = series <> None || health <> None in
  let obs = registry ?obs ~windows () in
  let versions = List.sort (fun a b -> compare a.v_id b.v_id) versions in
  let span name f =
    match Obs.Metrics.trace obs with
    | None -> f ()
    | Some t ->
        let track = Obs.Trace.track t ~tid:0 ~name:"fleet" in
        Obs.Trace.with_span track name f
  in
  let jobs = max 1 cfg.f_jobs in
  let requests =
    List.concat (List.init cfg.f_request_copies (fun _ -> workload.D.w_train))
  in
  (* Phase 1: one profiling build per version in flight. *)
  let builds =
    span "fleet-build" (fun () ->
        S.map ~obs ~jobs
          (fun v ->
            Build.profiling_build ~options:cfg.f_options ~shape:cfg.f_shape
              ~source:v.v_source)
          versions)
  in
  (* Phase 2: serve every version's cohort its own copy of the stream. *)
  let served =
    span "fleet-serve" (fun () ->
        serve ~obs ~jobs ~duty:cfg.f_duty ~batch_requests:cfg.f_batch_requests
          ~seed:cfg.f_seed ~pmu:cfg.f_options.D.pmu ~entry:workload.D.w_entry
          (List.map2 (fun v b -> (v.v_id, b.Build.vb_bin, v.v_instances)) versions builds)
          (List.map (fun r -> (r, Label_set.empty)) requests))
  in
  (* Phase 3: collect and drain. The fused drain: each version keeps its
     decoded chunk partition, so the concatenated per-version log is never
     materialized between the wire and the correlators. *)
  let collector = ingest ~obs ~shards:cfg.f_shards served in
  let merged =
    span "fleet-drain" (fun () ->
        Collector.drain_chunks ~jobs collector)
  in
  (* Phase 4: per-version correlation on the version's own build. The
     parallelism lives *inside* each correlation (sharded chunk replay),
     where the samples are, rather than across the handful of versions. *)
  let profiles =
    span "fleet-correlate" (fun () ->
        List.map2
          (fun v b ->
            let chunks =
              match
                List.find_opt (fun (m : Collector.chunks) -> m.k_version = v.v_id) merged
              with
              | Some m -> m.Collector.k_chunks
              | None -> []
            in
            Build.correlate_chunks ~obs ~jobs ~options:cfg.f_options
              ~shape:cfg.f_shape b chunks)
          versions builds)
  in
  (* Phase 5: stale-route old versions onto the newest, then merge. *)
  let target_v = List.nth versions (List.length versions - 1) in
  let target_b = List.nth builds (List.length builds - 1) in
  let routed, (fs_profile, fs_flat) =
    span "fleet-merge" (fun () ->
        let routed =
          List.map2
            (fun v pair ->
              if v.v_id = target_v.v_id then (pair, None)
              else
                let pair, rep =
                  Core.Stale_match.route ~obs ~target:target_b.Build.vb_target pair
                in
                (pair, Some rep))
            versions profiles
        in
        ( routed,
          P.Merge.weighted_pairs ~kind:(Build.kind_of_shape cfg.f_shape)
            (List.map2
               (fun v ((prof, flat), _) -> (v.v_weight, prof, flat))
               versions routed) ))
  in
  let per_version =
    List.map2
      (fun v ((prof0, _flat0), (_, rep)) ->
        let r, bytes = total (List.filter (fun s -> s.sv_version = v.v_id) served) in
        {
          pv_id = v.v_id;
          pv_instances = v.v_instances;
          pv_requests = r.Instance.ir_requests;
          pv_sampled = r.Instance.ir_sampled;
          pv_samples = r.Instance.ir_samples;
          pv_batches = r.Instance.ir_batches;
          pv_bytes = bytes;
          pv_profile = prof0;
          pv_stale = rep;
        })
      versions (List.combine profiles routed)
  in
  let all, bytes = total served in
  let c name v = Obs.Metrics.bump (Obs.Metrics.counter obs name) v in
  c "fleet.instances" (List.length served);
  c "fleet.requests" all.Instance.ir_requests;
  c "fleet.sampled" all.Instance.ir_sampled;
  c "fleet.samples" all.Instance.ir_samples;
  c "fleet.batches" all.Instance.ir_batches;
  (* One telemetry window per collection window: the cumulative snapshot
     closes both the series window and the health window. *)
  (if windows then begin
     let snap = Obs.Metrics.snapshot obs in
     Option.iter (fun s -> ignore (Obs.Series.record s snap)) series;
     Option.iter (fun h -> ignore (Obs.Health.observe h snap)) health
   end);
  {
    fs_profile;
    fs_flat;
    fs_target = target_b;
    fs_per_version = per_version;
    fs_requests = all.Instance.ir_requests;
    fs_sampled = all.Instance.ir_sampled;
    fs_samples = all.Instance.ir_samples;
    fs_batches = all.Instance.ir_batches;
    fs_bytes = bytes;
    fs_cycles = all.Instance.ir_cycles;
  }
