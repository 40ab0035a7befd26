module P = Csspgo_profile
module Core = Csspgo_core
module D = Core.Driver
module W = Csspgo_workloads
module Obs = Csspgo_obs
module Fnv = Csspgo_support.Fnv

type config = {
  t_generations : int;
  t_edits : int;
  t_edit_schedule : int list;
  t_skew : int;
  t_cohort : int;
  t_overlap : bool;
  t_fleet : Sim.config;
}

let default =
  {
    t_generations = 3;
    t_edits = 2;
    t_edit_schedule = [];
    t_skew = 1;
    t_cohort = 2;
    t_overlap = true;
    t_fleet = Sim.default;
  }

type generation = {
  g_id : int;
  g_source : string;
  g_fleet : Sim.outcome;
  g_carry : Core.Stale_match.report option;
  g_profile : P.Text_io.profile;
  g_outcome : D.outcome;
  g_nopgo : D.eval;
  g_speedup : float;
  g_overlap : float option;
  g_health : Obs.Health.window_report option;
}

let edits_for cfg g =
  match List.nth_opt cfg.t_edit_schedule (g - 1) with
  | Some e -> e
  | None -> cfg.t_edits

let run ?obs ?series ?health cfg (w : D.workload) =
  if cfg.t_generations < 1 then
    invalid_arg "Train.run: t_generations must be at least 1";
  if cfg.t_skew < 0 then invalid_arg "Train.run: negative t_skew";
  List.iter
    (fun e -> if e < 0 then invalid_arg "Train.run: negative scheduled edits")
    cfg.t_edit_schedule;
  let windows = series <> None || health <> None in
  let obs = Sim.registry ?obs ~windows () in
  let options = cfg.t_fleet.Sim.f_options in
  (* Drift chain: each release drifts from its predecessor, so edits
     compound down the train the way real source history does. The edit
     schedule overrides the uniform count per transition — entry [g-1]
     is the drift applied between generation g-1 and g (a mid-train
     spike is one large entry). Generation g's edits are seeded from g. *)
  let sources = Array.make cfg.t_generations w.D.w_source in
  for g = 1 to cfg.t_generations - 1 do
    sources.(g) <-
      (W.Drift.apply ~seed:(Fnv.int 7L g) ~edits:(edits_for cfg g) sources.(g - 1))
        .W.Drift.dr_source
  done;
  let kind = Build.kind_of_shape cfg.t_fleet.Sim.f_shape in
  let carried = ref None in
  let prev_window = ref None in
  List.init cfg.t_generations (fun g ->
      let source = sources.(g) in
      let gen_w = { w with D.w_source = source } in
      let lo = max 0 (g - cfg.t_skew) in
      let versions =
        List.init (g - lo + 1) (fun i ->
            let id = lo + i in
            {
              Sim.v_id = id;
              v_source = sources.(id);
              v_weight = 1L;
              v_instances = cfg.t_cohort;
            })
      in
      let fleet = Sim.run ~obs cfg.t_fleet ~workload:gen_w ~versions in
      let (profile, flat), carry_rep =
        match !carried with
        | None -> ((fleet.Sim.fs_profile, fleet.Sim.fs_flat), None)
        | Some prev ->
            let (matched, matched_flat), rep =
              Core.Stale_match.route ~obs
                ~target:fleet.Sim.fs_target.Build.vb_target prev
            in
            ( P.Merge.weighted_pairs ~kind
                [
                  (1L, matched, matched_flat);
                  (3L, fleet.Sim.fs_profile, fleet.Sim.fs_flat);
                ],
              Some rep )
      in
      carried := Some (profile, flat);
      (* One health/series window per generation, carrying the
         window-over-window overlap of the fresh fleet profiles — the
         merge-dilution/drift signal no counter limit can see. *)
      let wov =
        match !prev_window with
        | None -> None
        | Some prev -> Some (Core.Quality.profile_overlap prev fleet.Sim.fs_profile)
      in
      prev_window := Some fleet.Sim.fs_profile;
      let g_health =
        if not windows then None
        else begin
          let snap = Obs.Metrics.snapshot obs in
          Option.iter (fun s -> ignore (Obs.Series.record s snap)) series;
          Option.map (fun h -> Obs.Health.observe ?overlap:wov h snap) health
        end
      in
      let plan = D.Plan.make_with_profile ~options ~profile ?flat gen_w in
      let outcome = D.Plan.run plan in
      let nopgo = (D.run_variant ~options D.Nopgo gen_w).D.o_eval in
      let speedup =
        Int64.to_float nopgo.D.ev_cycles
        /. Int64.to_float outcome.D.o_eval.D.ev_cycles
      in
      let overlap =
        if cfg.t_overlap then
          let truth = (D.run_variant ~options D.Instr_pgo gen_w).D.o_annotated in
          Some (Core.Quality.block_overlap ~truth outcome.D.o_annotated)
        else None
      in
      {
        g_id = g;
        g_source = source;
        g_fleet = fleet;
        g_carry = carry_rep;
        g_profile = profile;
        g_outcome = outcome;
        g_nopgo = nopgo;
        g_speedup = speedup;
        g_overlap = overlap;
        g_health;
      })
