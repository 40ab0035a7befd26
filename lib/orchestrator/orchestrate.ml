module D = Csspgo_core.Driver
module Obs = Csspgo_obs

(* ["<workload>/<variant>"]: span and track naming for a plan. *)
let plan_label (p : D.Plan.t) =
  p.D.Plan.pl_workload.D.w_name ^ "/" ^ D.variant_name p.D.Plan.pl_variant

let mk_hooks ?cache ?(obs = Obs.Metrics.null) ?track ?(stage_jobs = 1) () =
  {
    D.Plan.memo =
      (fun ~kind ~key ~ser ~de f ->
        match cache with
        | Some c -> Cache.memo c ~kind ~key ~ser ~de f
        | None -> f ());
    span =
      (fun ~name f ->
        match track with
        | Some tk -> Obs.Trace.with_span tk name f
        | None -> f ());
    obs;
    jobs = stage_jobs;
  }

let hooks ?obs ?track ?stage_jobs cache = mk_hooks ~cache ?obs ?track ?stage_jobs ()

let run_plans ?cache ?obs ?stage_jobs ~jobs plans =
  (* Tracks are registered serially here, in plan order, with the plan
     index as tid — an identity independent of which domain later runs the
     plan. That (plus per-track clock cursors) is what makes fixed-clock
     traces byte-identical across -j levels. *)
  let tracks =
    match Option.bind obs Obs.Metrics.trace with
    | None -> List.map (fun _ -> None) plans
    | Some tr ->
        List.mapi (fun i p -> Some (Obs.Trace.track tr ~tid:i ~name:(plan_label p))) plans
  in
  Csspgo_sched.Scheduler.map ?obs ~jobs
    (fun (plan, track) ->
      let hooks = mk_hooks ?cache ?obs ?track ?stage_jobs () in
      match track with
      | Some tk ->
          Obs.Trace.with_span tk (plan_label plan) (fun () -> D.Plan.run ~hooks plan)
      | None -> D.Plan.run ~hooks plan)
    (List.combine plans tracks)

let run_matrix ?cache ?obs ?options ~jobs ~variants ~workloads () =
  let plans =
    List.concat_map
      (fun w -> List.map (fun variant -> D.Plan.make ?options ~variant w) variants)
      workloads
  in
  let outcomes = run_plans ?cache ?obs ~jobs plans in
  List.map2
    (fun (plan : D.Plan.t) o -> (plan.D.Plan.pl_workload, plan.D.Plan.pl_variant, o))
    plans outcomes
