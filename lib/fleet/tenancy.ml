module Vm = Csspgo_vm
module P = Csspgo_profile
module Obs = Csspgo_obs
module Core = Csspgo_core
module D = Core.Driver
module S = Csspgo_sched.Scheduler
module Label_set = Csspgo_support.Label_set
module W = Csspgo_workloads

type config = {
  ty_instances : int;
  ty_shards : int;
  ty_duty : float;
  ty_batch_requests : int;
  ty_jobs : int;
  ty_shape : Build.shape;
  ty_options : D.options;
  ty_seed : int64;
}

let default =
  {
    ty_instances = 2;
    ty_shards = 2;
    ty_duty = 1.0;
    ty_batch_requests = 4;
    ty_jobs = 1;
    ty_shape = Build.Ctx;
    ty_options = D.default_options;
    ty_seed = 1L;
  }

type collected = {
  co_build : Build.built;
  co_log : Vm.Sample_log.t;
  co_labeled : Build.labeled;
  co_tenants : P.Labels.t;
  co_requests : int;
  co_sampled : int;
  co_samples : int;
  co_batches : int;
  co_bytes : int;
  co_cycles : int64;
}

let validate cfg =
  if cfg.ty_instances <= 0 then
    invalid_arg "Tenancy.collect: ty_instances must be positive";
  if cfg.ty_shards <= 0 then
    invalid_arg "Tenancy.collect: ty_shards must be positive";
  if cfg.ty_batch_requests <= 0 then
    invalid_arg "Tenancy.collect: ty_batch_requests must be positive";
  if not (cfg.ty_duty >= 0.0 && cfg.ty_duty <= 1.0) then
    invalid_arg "Tenancy.collect: ty_duty must be in [0, 1]"

let collect ?(obs = Obs.Metrics.null) cfg (mix : W.Mix.t) =
  validate cfg;
  let jobs = max 1 cfg.ty_jobs in
  let options = cfg.ty_options in
  let build =
    Build.profiling_build ~options ~shape:cfg.ty_shape
      ~source:mix.W.Mix.mx_workload.D.w_source
  in
  let served =
    Sim.serve ~obs ~jobs ~duty:cfg.ty_duty ~batch_requests:cfg.ty_batch_requests
      ~seed:cfg.ty_seed ~pmu:options.D.pmu ~entry:mix.W.Mix.mx_workload.D.w_entry
      [ (0, build.Build.vb_bin, cfg.ty_instances) ]
      mix.W.Mix.mx_requests
  in
  let collector = Sim.ingest ~obs ~shards:cfg.ty_shards served in
  let log =
    match Collector.drain ~jobs collector with
    | [ m ] -> m.Collector.m_log
    | [] -> Vm.Sample_log.create ()
    | _ -> assert false (* single version in flight *)
  in
  let labeled =
    Build.correlate_labeled ~obs ~jobs ~options ~shape:cfg.ty_shape
      build log
  in
  let all, bytes = Sim.total served in
  {
    co_build = build;
    co_log = log;
    co_labeled = labeled;
    co_tenants =
      P.Labels.project labeled.Build.lc_slices ~keys:[ W.Mix.tenant_key ];
    co_requests = all.Instance.ir_requests;
    co_sampled = all.Instance.ir_sampled;
    co_samples = all.Instance.ir_samples;
    co_batches = all.Instance.ir_batches;
    co_bytes = bytes;
    co_cycles = all.Instance.ir_cycles;
  }

(* --- per-tenant specialization ---------------------------------------- *)

type specialized = {
  sp_tenant : string;
  sp_label : Label_set.t;
  sp_weight : int64;
  sp_sliced : D.outcome option;
  sp_blended : D.outcome;
}

let tenant_label name = Label_set.of_list [ (W.Mix.tenant_key, name) ]

let tenant_workload (mix : W.Mix.t) name =
  let evals =
    match List.assoc_opt name mix.W.Mix.mx_tenant_evals with
    | Some evals -> evals
    | None -> invalid_arg (Printf.sprintf "Tenancy: unknown tenant %s" name)
  in
  { mix.W.Mix.mx_workload with D.w_eval = evals }

let specialize ?hooks cfg (mix : W.Mix.t) collected =
  let options = cfg.ty_options in
  let run_plan plan = D.Plan.run ?hooks plan in
  S.map ~jobs:(max 1 cfg.ty_jobs)
    (fun (name, _evals) ->
      let label = tenant_label name in
      let w = tenant_workload mix name in
      let slice = P.Labels.find collected.co_tenants label in
      let sliced =
        Option.map
          (fun s ->
            run_plan
              (D.Plan.make_with_profile ~options
                 ~profile:s.P.Labels.sl_profile w))
          slice
      in
      let blended =
        run_plan
          (D.Plan.make_with_profile ~options
             ~profile:collected.co_labeled.Build.lc_blend
             ?flat:collected.co_labeled.Build.lc_flat w)
      in
      {
        sp_tenant = name;
        sp_label = label;
        sp_weight =
          (match slice with Some s -> s.P.Labels.sl_weight | None -> 0L);
        sp_sliced = sliced;
        sp_blended = blended;
      })
    mix.W.Mix.mx_tenant_evals

(* --- quality scoring --------------------------------------------------- *)

type comparison = {
  cp_tenant : string;
  cp_weight : int64;
  cp_share : float;
  cp_sliced_overlap : float;
  cp_blended_overlap : float;
  cp_sliced_cycles : int64;
  cp_blended_cycles : int64;
  cp_nopgo_cycles : int64;
}

let quality ?hooks cfg (mix : W.Mix.t) collected specialized =
  let options = cfg.ty_options in
  let total = P.Labels.total_weight collected.co_tenants in
  List.filter_map
    (fun sp ->
      (* The tenant's own requests from the served stream are the training
         inputs of its instrumentation ground truth. *)
      let train =
        List.filter_map
          (fun (spec, ls) ->
            match Label_set.find ls W.Mix.tenant_key with
            | Some v when String.equal v sp.sp_tenant -> Some spec
            | _ -> None)
          mix.W.Mix.mx_requests
      in
      if train = [] then None
      else begin
        let w = { (tenant_workload mix sp.sp_tenant) with D.w_train = train } in
        let truth =
          D.Plan.run ?hooks (D.Plan.make ~options ~variant:D.Instr_pgo w)
        in
        let nopgo =
          D.Plan.run ?hooks (D.Plan.make ~options ~variant:D.Nopgo w)
        in
        let overlap (o : D.outcome) =
          Core.Quality.block_overlap ~truth:truth.D.o_annotated o.D.o_annotated
        in
        Some
          {
            cp_tenant = sp.sp_tenant;
            cp_weight = sp.sp_weight;
            cp_share =
              (if Int64.compare total 0L > 0 then
                 Int64.to_float sp.sp_weight /. Int64.to_float total
               else 0.0);
            cp_sliced_overlap =
              (match sp.sp_sliced with Some o -> overlap o | None -> Float.nan);
            cp_blended_overlap = overlap sp.sp_blended;
            cp_sliced_cycles =
              (match sp.sp_sliced with
              | Some o -> o.D.o_eval.D.ev_cycles
              | None -> -1L);
            cp_blended_cycles = sp.sp_blended.D.o_eval.D.ev_cycles;
            cp_nopgo_cycles = nopgo.D.o_eval.D.ev_cycles;
          }
      end)
    specialized
