module Vm = Csspgo_vm
module P = Csspgo_profile
module Obs = Csspgo_obs
module Core = Csspgo_core
module D = Core.Driver
module S = Csspgo_sched.Scheduler
module Fnv = Csspgo_support.Fnv

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

let replicate n xs = List.concat (List.init n (fun _ -> xs))

let validate cfg versions =
  if versions = [] then invalid_arg "Sim.run: empty version list";
  if cfg.f_shards <= 0 then invalid_arg "Sim.run: f_shards must be positive";
  if cfg.f_request_copies <= 0 then
    invalid_arg "Sim.run: f_request_copies must be positive";
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
  let requests = replicate cfg.f_request_copies workload.D.w_train in
  (* Phase 1: one profiling build per version in flight. *)
  let builds =
    span "fleet-build" (fun () ->
        S.map ~obs ~jobs
          (fun v ->
            Build.profiling_build ~options:cfg.f_options ~shape:cfg.f_shape
              ~source:v.v_source)
          versions)
  in
  let built_of = Hashtbl.create 8 in
  List.iter2 (fun v b -> Hashtbl.replace built_of v.v_id b) versions builds;
  (* Phase 2: serve. Instance ids are assigned fleet-wide in (version,
     cohort-slot) order; each instance accumulates its batches locally so
     the parallel stage never touches the collector. *)
  let instances =
    List.concat_map
      (fun v ->
        List.mapi (fun slot block -> (v, slot, block))
          (partition v.v_instances requests))
      versions
  in
  let instances =
    List.mapi (fun id (v, _slot, block) -> (id, v, block)) instances
  in
  let served =
    span "fleet-serve" (fun () ->
        S.map ~obs ~jobs
          (fun (id, v, block) ->
            let b = Hashtbl.find built_of v.v_id in
            let batches = ref [] in
            let report =
              Instance.serve
                {
                  Instance.ic_instance = id;
                  ic_version = v.v_id;
                  ic_duty = cfg.f_duty;
                  ic_batch_requests = cfg.f_batch_requests;
                  ic_seed = Fnv.int64 (Fnv.int cfg.f_seed id) (Int64.of_int v.v_id);
                }
                ~pmu:cfg.f_options.D.pmu ~bin:b.Build.vb_bin
                ~entry:workload.D.w_entry ~requests:block
                ~ship:(fun batch -> batches := batch :: !batches)
            in
            (report, List.rev !batches))
          instances)
  in
  (* Phase 3: collect and drain. Ingest order is deterministic (instance
     order) but drain re-sorts anyway, so arrival order never matters. *)
  let collector = Collector.create ~obs ~shards:cfg.f_shards () in
  List.iter
    (fun (_report, batches) -> List.iter (Collector.ingest collector) batches)
    served;
  (* The fused drain: each version keeps its decoded chunk partition, so
     the concatenated per-version log is never materialized between the
     wire and the correlators. *)
  let merged =
    span "fleet-drain" (fun () ->
        Collector.drain_chunks ~jobs collector)
  in
  let merged_of = Hashtbl.create 8 in
  List.iter
    (fun (m : Collector.chunks) ->
      Hashtbl.replace merged_of m.Collector.k_version m)
    merged;
  (* Phase 4: per-version correlation on the version's own build. The
     parallelism lives *inside* each correlation (sharded chunk replay),
     where the samples are, rather than across the handful of versions. *)
  let profiles =
    span "fleet-correlate" (fun () ->
        List.map
          (fun v ->
            let b = Hashtbl.find built_of v.v_id in
            let chunks =
              match Hashtbl.find_opt merged_of v.v_id with
              | Some m -> m.Collector.k_chunks
              | None -> []
            in
            Build.correlate_chunks ~obs ~jobs ~options:cfg.f_options
              ~shape:cfg.f_shape b chunks)
          versions)
  in
  (* Phase 5: stale-route old versions onto the newest, then merge. *)
  let target_v = List.nth versions (List.length versions - 1) in
  let target_b = Hashtbl.find built_of target_v.v_id in
  let routed =
    span "fleet-merge" (fun () ->
        List.map2
          (fun v (prof, flat) ->
            if v.v_id = target_v.v_id then (v, prof, flat, None)
            else
              let prof', rep =
                Build.match_onto ~obs ~target:target_b.Build.vb_target prof
              in
              let flat' =
                Option.map
                  (fun f ->
                    (* The flat baseline rides the same routing; its
                       verdicts would double-count the trie's. *)
                    fst
                      (Core.Stale_match.match_probe
                         ~target:target_b.Build.vb_target f))
                  flat
              in
              (v, prof', flat', Some rep))
          versions profiles)
  in
  let kind = Build.kind_of_shape cfg.f_shape in
  let fs_profile =
    P.Merge.weighted ~kind
      (List.map (fun (v, prof, _flat, _rep) -> (v.v_weight, prof)) routed)
  in
  let fs_flat =
    match cfg.f_shape with
    | Build.Ctx ->
        let flats =
          List.map
            (fun (v, _prof, flat, _rep) ->
              match flat with
              | Some f -> (v.v_weight, P.Text_io.Probe_prof f)
              | None -> assert false)
            routed
        in
        (match P.Merge.weighted ~kind:P.Text_io.Probe flats with
        | P.Text_io.Probe_prof pp -> Some pp
        | _ -> assert false)
    | Build.Lines | Build.Probes -> None
  in
  let inst_served = List.combine instances served in
  let per_version =
    List.map2
      (fun (v, _prof, _flat, rep) (prof0, _flat0) ->
        let stats =
          List.filter_map
            (fun ((_id, v', _block), rs) ->
              if v'.v_id = v.v_id then Some rs else None)
            inst_served
        in
        let sum f = List.fold_left (fun acc (r, _) -> acc + f r) 0 stats in
        let batches = List.concat_map snd stats in
        {
          pv_id = v.v_id;
          pv_instances = v.v_instances;
          pv_requests = sum (fun r -> r.Instance.ir_requests);
          pv_sampled = sum (fun r -> r.Instance.ir_sampled);
          pv_samples = sum (fun r -> r.Instance.ir_samples);
          pv_batches = List.length batches;
          pv_bytes =
            List.fold_left
              (fun acc (b : Instance.batch) ->
                acc + String.length b.Instance.b_blob)
              0 batches;
          pv_profile = prof0;
          pv_stale = rep;
        })
      routed profiles
  in
  let sum f = List.fold_left (fun acc pv -> acc + f pv) 0 per_version in
  let cycles =
    List.fold_left
      (fun acc (r, _) -> Int64.add acc r.Instance.ir_cycles)
      0L served
  in
  let c name v = Obs.Metrics.bump (Obs.Metrics.counter obs name) v in
  c "fleet.instances" (List.length instances);
  c "fleet.requests" (sum (fun pv -> pv.pv_requests));
  c "fleet.sampled" (sum (fun pv -> pv.pv_sampled));
  c "fleet.samples" (sum (fun pv -> pv.pv_samples));
  c "fleet.batches" (sum (fun pv -> pv.pv_batches));
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
    fs_requests = sum (fun pv -> pv.pv_requests);
    fs_sampled = sum (fun pv -> pv.pv_sampled);
    fs_samples = sum (fun pv -> pv.pv_samples);
    fs_batches = sum (fun pv -> pv.pv_batches);
    fs_bytes = sum (fun pv -> pv.pv_bytes);
    fs_cycles = cycles;
  }
