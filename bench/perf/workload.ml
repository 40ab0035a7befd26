(* The benchmark's four workloads. Each derives its inputs from the seed,
   sets up what its units need but do not include (baselines, -O0
   reference results), and runs one unit two ways: through the black-box
   entry point a user calls, and through the traced composition of the
   layers underneath (see [Composed]). Why each workload exists is in
   README.md. *)

module F = Csspgo_frontend
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module P = Csspgo_profile
module Core = Csspgo_core
module D = Core.Driver
module Fl = Csspgo_fleet
module W = Csspgo_workloads
module Fnv = Csspgo_support.Fnv

(* --- inputs from the seed ----------------------------------------------- *)

type params = {
  defaults : bool;  (* seed 1: the driver's defaults, pinned below *)
  period : int;
  pmu_seed : int64;
  drift_seed : int64;
  mix_seed : int64;
  duty_seed : int64;
}

(* Sample periods for seeds other than 1: primes within 3% of the default
   at which a unit costs what it costs at the default, to within 1%. A
   seed moves which cycles are sampled, not how much work a unit is:
   haas's Algorithm 1 allocates 924 Mw at 977 and 1009 and 933 at 991,
   but 860 at 997 and 769 at 1031 (README.md has the table). *)
let periods_near_1009 = [ 977; 991; 1009 ]
let periods_near_499 = [ 491; 499; 503 ]

let params ~fleet ~seed =
  if seed = 1 then
    {
      defaults = true;
      period = (if fleet then 499 else 1009);
      pmu_seed = 42L;
      drift_seed = 101L;
      mix_seed = 7L;
      duty_seed = 1L;
    }
  else
    let draw tag = Fnv.int (Fnv.hash_string tag) seed in
    let pick l = List.nth l (Int64.to_int (Int64.unsigned_rem (draw "period") (Int64.of_int (List.length l)))) in
    {
      defaults = false;
      period = pick (if fleet then periods_near_499 else periods_near_1009);
      pmu_seed = draw "pmu";
      drift_seed = draw "drift";
      mix_seed = draw "mix";
      duty_seed = 1L;
    }

let options p =
  {
    D.default_options with
    D.pmu =
      { D.default_options.D.pmu with Vm.Machine.sample_period = p.period; seed = p.pmu_seed };
  }

(* --- what a unit yields --------------------------------------------------- *)

(* A binary the unit produced and the inputs the output check runs it on. *)
type binary = { bn_bin : Cg.Mach.binary; bn_workload : D.workload }

(* One sampled-PGO build's share of the end-to-end metrics. *)
type pgo = { cycles : int64; baseline : int64; overlap : float; text : int; profile : int }

type outcome = {
  binaries : binary list;
  pgo : pgo list;
  fingerprint : (string * string) list Lazy.t;
      (* what the composed pipeline must reproduce byte-for-byte *)
  extra : (string * float) list;  (* layer numbers measured after a traced unit *)
}

type prepared = {
  inputs : string;  (* what the seed chose, for the report *)
  probe_ratio : float;
  references : (string, int64 list) Hashtbl.t;
  setup_digest : string;  (* equal across repeated set-ups *)
  black_box : capture:bool -> unit -> unit -> outcome;
      (* runs the timed unit, returning its summarizer *)
  composed : unit -> unit -> outcome;
}

type t = {
  name : string;
  domains : int;  (* domains one unit runs on *)
  prepare : params -> prepared;
}

(* Everything deterministic in a binary: the address index is a hash
   table whose layout depends on insertion history. *)
let binary_digest (b : Cg.Mach.binary) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( b.Cg.Mach.funcs,
            b.Cg.Mach.insts,
            b.Cg.Mach.probes,
            b.Cg.Mach.n_counters,
            b.Cg.Mach.globals,
            b.Cg.Mach.text_size,
            b.Cg.Mach.debug_size,
            b.Cg.Mach.probe_meta_size )
          [ Marshal.No_sharing ]))

(* --- output check ---------------------------------------------------------- *)

let results bin (w : D.workload) =
  List.map
    (fun (spec : D.run_spec) ->
      (Vm.Machine.run ~pmu:None ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args bin
         ~entry:w.D.w_entry)
        .Vm.Machine.ret_value)
    w.D.w_eval

let reference_key (w : D.workload) =
  Digest.string (Marshal.to_string (w.D.w_source, w.D.w_entry, w.D.w_eval) [])

let reference_results (w : D.workload) =
  let p = F.Lower.compile w.D.w_source in
  Opt.Pass.optimize ~config:Opt.Config.o0 p;
  results (Cg.Emit.emit ~options:Cg.Emit.default_options p) w

let references ws =
  let t = Hashtbl.create 8 in
  List.iter (fun w -> Hashtbl.replace t (reference_key w) (reference_results w)) ws;
  t

(* --- set-up pieces ------------------------------------------------------- *)

(* Fig. 8: training cycles of the probed vs. the plain -O2 profiling
   build, geometric mean over the workload's programs. *)
let probe_ratio options ws =
  let training ~probes (w : D.workload) =
    let prog = F.Lower.compile w.D.w_source in
    if probes then Core.Pseudo_probe.insert prog;
    Opt.Pass.optimize ~config:options.D.opt_profiling prog;
    let bin = Cg.Emit.emit ~options:options.D.emit_opts prog in
    List.fold_left
      (fun acc (spec : D.run_spec) ->
        Int64.add acc
          (Vm.Machine.run ~pmu:None ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args
             bin ~entry:w.D.w_entry)
            .Vm.Machine.cycles)
      0L w.D.w_train
  in
  let logs =
    List.map
      (fun w ->
        log (Int64.to_float (training ~probes:true w) /. Int64.to_float (training ~probes:false w)))
      ws
  in
  exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))

let run_variant options variant w = D.Plan.run (D.Plan.make ~options ~variant w)

(* --- one built plan, black box or composed ------------------------------ *)

type built = {
  bt_workload : D.workload;
  bt_bin : Cg.Mach.binary;
  bt_eval : D.eval;
  bt_profile_size : int;
  bt_annotated : Csspgo_ir.Program.t;
  bt_correlated : (unit -> string) list;
}

let built_of_outcome ?(correlated = []) w (o : D.outcome) =
  {
    bt_workload = w;
    bt_bin = o.D.o_binary;
    bt_eval = o.D.o_eval;
    bt_profile_size = o.D.o_profile_size;
    bt_annotated = o.D.o_annotated;
    bt_correlated = correlated;
  }

let built_of_result w (r : Composed.plan_result) =
  {
    bt_workload = w;
    bt_bin = r.Composed.pl_bin;
    bt_eval = r.Composed.pl_eval;
    bt_profile_size = r.Composed.pl_profile_size;
    bt_annotated = r.Composed.pl_annotated;
    bt_correlated = r.Composed.pl_correlated;
  }

let plan_run ~capture plan =
  let hooks, kept =
    if capture then Composed.capture_hooks () else (D.Plan.default_hooks, fun () -> [])
  in
  let o = D.Plan.run ~hooks plan in
  built_of_outcome ~correlated:(kept ()) plan.D.Plan.pl_workload o

let composed_plan plan = built_of_result plan.D.Plan.pl_workload (Composed.run_plan plan)

let built_fingerprint tag b =
  List.mapi (fun i c -> (Printf.sprintf "%s.correlated.%d" tag i, c ())) b.bt_correlated
  @ [
      (tag ^ ".binary", binary_digest b.bt_bin);
      ( tag ^ ".eval",
        Printf.sprintf "%Ld %Ld %Ld %Ld" b.bt_eval.D.ev_cycles b.bt_eval.D.ev_instructions
          b.bt_eval.D.ev_icache_misses b.bt_eval.D.ev_taken_branches );
      (tag ^ ".profile_size", string_of_int b.bt_profile_size);
    ]

let pgo_of ~baseline ~truth b =
  {
    cycles = b.bt_eval.D.ev_cycles;
    baseline;
    overlap = Core.Quality.block_overlap ~truth b.bt_annotated;
    text = b.bt_bin.Cg.Mach.text_size;
    profile = b.bt_profile_size;
  }

let binary_of b = { bn_bin = b.bt_bin; bn_workload = b.bt_workload }

let digest_of_setup v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* --- ctx-recursive ------------------------------------------------------- *)

(* The seed-1 pin: haas under full CSSPGO at the driver defaults. *)
let pinned_cycles = 23_952_291L
let pinned_text = 497

let ctx_recursive p =
  let options = options p in
  let w = W.Suite.haas in
  let refs = references [ w ] in
  let nopgo = (run_variant options D.Nopgo w).D.o_eval.D.ev_cycles in
  let truth = (run_variant options D.Instr_pgo w).D.o_annotated in
  let ratio = probe_ratio options [ w ] in
  let plan = D.Plan.make ~options ~variant:D.Csspgo_full w in
  let summarize b () =
    if p.defaults
       && (b.bt_eval.D.ev_cycles <> pinned_cycles || b.bt_bin.Cg.Mach.text_size <> pinned_text)
    then
      failwith
        (Printf.sprintf
           "seed 1 must reproduce the driver defaults: haas csspgo gave %Ld cycles and %d \
            text bytes, pinned %Ld and %d"
           b.bt_eval.D.ev_cycles b.bt_bin.Cg.Mach.text_size pinned_cycles pinned_text);
    {
      binaries = [ binary_of b ];
      pgo = [ pgo_of ~baseline:nopgo ~truth b ];
      fingerprint = lazy (built_fingerprint "haas.csspgo" b);
      extra = [];
    }
  in
  {
    inputs = "haas";
    probe_ratio = ratio;
    references = refs;
    setup_digest = digest_of_setup (nopgo, ratio, Hashtbl.find refs (reference_key w));
    black_box = (fun ~capture () -> summarize (plan_run ~capture plan));
    composed = (fun () -> summarize (composed_plan plan));
  }

(* --- server-matrix ------------------------------------------------------ *)

let server_programs = W.Suite.[ adranker; adretriever; adfinder; hhvm ]
let variants = D.[ Nopgo; Instr_pgo; Autofdo; Csspgo_probe_only; Csspgo_full ]

let server_matrix p =
  let options = options p in
  let refs = references server_programs in
  let ratio = probe_ratio options server_programs in
  let plans =
    List.map (fun w -> List.map (fun v -> D.Plan.make ~options ~variant:v w) variants) server_programs
  in
  (* Each row runs the program's no-PGO baseline and instrumentation truth
     itself, so the unit needs nothing else from set-up. *)
  let summarize rows () =
    let pgo =
      List.concat_map
        (function
          | nopgo :: instr :: sampled ->
              List.map
                (pgo_of ~baseline:nopgo.bt_eval.D.ev_cycles ~truth:instr.bt_annotated)
                sampled
          | _ -> assert false)
        rows
    in
    {
      binaries = List.concat_map (List.map binary_of) rows;
      pgo;
      fingerprint =
        lazy
          (List.concat
             (List.map2
                (fun row w ->
                  List.concat
                    (List.map2
                       (fun b v ->
                         built_fingerprint
                           (w.D.w_name ^ "." ^ D.variant_name v)
                           b)
                       row variants))
                rows server_programs));
      extra = [];
    }
  in
  {
    inputs = String.concat " " (List.map (fun w -> w.D.w_name) server_programs);
    probe_ratio = ratio;
    references = refs;
    setup_digest =
      digest_of_setup
        (ratio, List.map (fun w -> Hashtbl.find refs (reference_key w)) server_programs);
    black_box =
      (fun ~capture () -> summarize (List.map (List.map (plan_run ~capture)) plans));
    composed = (fun () -> summarize (List.map (List.map composed_plan) plans));
  }

(* --- fleet-skew -------------------------------------------------------------- *)

let fleet_jobs = 2

let fleet_skew p =
  let options = options p in
  let w = W.Suite.adfinder in
  (* Seeds other than 1 draw another two-edit drift script: the first that
     keeps seed 1's call retarget and whose N+1 costs seed 1's exactly
     without PGO. That retarget sends a hot call to a costlier leaf; most
     scripts lack it and their N+1 costs 21% less. A seed must change the
     edits, not the size of the workload. *)
  let apply seed = W.Drift.apply ~seed ~edits:2 w.D.w_source in
  let nopgo_of d =
    let w_next = { w with D.w_source = d.W.Drift.dr_source } in
    (w_next, (run_variant options D.Nopgo w_next).D.o_eval.D.ev_cycles)
  in
  let base = apply 101L in
  let (w_next, nopgo), drift =
    if p.defaults then (nopgo_of base, base)
    else
      let retarget =
        List.filter
          (function W.Drift.Retarget_call _ -> true | _ -> false)
          base.W.Drift.dr_edits
      in
      let _, cost = nopgo_of base in
      let rec search seed =
        let d = apply seed in
        let keeps = List.for_all (fun e -> List.mem e d.W.Drift.dr_edits) retarget in
        match if keeps then Some (nopgo_of d) else None with
        | Some ((_, c) as found) when c = cost -> (found, d)
        | _ -> search (Int64.succ seed)
      in
      search p.drift_seed
  in
  let next = w_next.D.w_source in
  let refs = references [ w_next ] in
  let truth = (run_variant options D.Instr_pgo w_next).D.o_annotated in
  let ratio = probe_ratio options [ w_next ] in
  let cfg =
    {
      Fl.Sim.default with
      Fl.Sim.f_options = options;
      f_request_copies = 8;
      f_shards = 2;
      f_duty = 1.0;
      f_jobs = fleet_jobs;
      f_seed = p.duty_seed;
    }
  in
  let version id source =
    { Fl.Sim.v_id = id; v_source = source; v_weight = 1L; v_instances = 4 }
  in
  let versions = [ version 0 w.D.w_source; version 1 next ] in
  let summarize ~collected ?(extra = fun () -> []) b () =
    {
      binaries = [ binary_of b ];
      pgo = [ pgo_of ~baseline:nopgo ~truth b ];
      fingerprint = lazy (collected () @ built_fingerprint "rebuild" b);
      extra = extra ();
    }
  in
  let fleet_fingerprint ~profile ~flat ~target ~cycles ~samples ~batches ~bytes () =
    [
      ("fleet.profile", P.Text_io.to_string profile);
      ( "fleet.flat",
        match flat with
        | Some f -> P.Text_io.to_string (P.Text_io.Probe_prof f)
        | None -> "" );
      ("fleet.target", binary_digest target.Fl.Build.vb_bin);
      ("fleet.counts", Printf.sprintf "%Ld %d %d %d" cycles samples batches bytes);
    ]
  in
  (* Correlation of the same drained chunks at -j 1 and at -j [fleet_jobs],
     timed back to back outside the traced unit. *)
  let par_corr_speedup chunks () =
    let time jobs =
      let t0 = Unix.gettimeofday () in
      List.iter
        (fun (b, cs) ->
          ignore (Fl.Build.correlate_chunks ~jobs ~options ~shape:cfg.Fl.Sim.f_shape b cs))
        chunks;
      Unix.gettimeofday () -. t0
    in
    let serial = time 1 in
    [ ("par_corr.speedup", serial /. time fleet_jobs) ]
  in
  {
    inputs =
      "adfinder N -> N+1 by "
      ^ String.concat "; " (List.map W.Drift.edit_to_string drift.W.Drift.dr_edits);
    probe_ratio = ratio;
    references = refs;
    setup_digest = digest_of_setup (nopgo, ratio, next, Hashtbl.find refs (reference_key w_next));
    black_box =
      (fun ~capture () ->
        let out = Fl.Sim.run cfg ~workload:w ~versions in
        let b =
          plan_run ~capture
            (D.Plan.make_with_profile ~options ~profile:out.Fl.Sim.fs_profile
               ?flat:out.Fl.Sim.fs_flat w_next)
        in
        summarize b
          ~collected:
            (fleet_fingerprint ~profile:out.Fl.Sim.fs_profile ~flat:out.Fl.Sim.fs_flat
               ~target:out.Fl.Sim.fs_target ~cycles:out.Fl.Sim.fs_cycles
               ~samples:out.Fl.Sim.fs_samples ~batches:out.Fl.Sim.fs_batches
               ~bytes:out.Fl.Sim.fs_bytes));
    composed =
      (fun () ->
        let r = Composed.sim cfg ~workload:w ~versions in
        let b =
          composed_plan
            (Composed.with_profile ~options ~profile:r.Composed.fr_profile
               ?flat:r.Composed.fr_flat w_next)
        in
        summarize b ~extra:(par_corr_speedup r.Composed.fr_chunks)
          ~collected:
            (fleet_fingerprint ~profile:r.Composed.fr_profile ~flat:r.Composed.fr_flat
               ~target:r.Composed.fr_target ~cycles:r.Composed.fr_cycles
               ~samples:r.Composed.fr_samples ~batches:r.Composed.fr_batches
               ~bytes:r.Composed.fr_bytes));
  }

(* --- tenant-mix -------------------------------------------------------------- *)

let tenants =
  [
    { W.Mix.t_name = "adretriever"; t_workload = W.Suite.adretriever; t_weight = 3 };
    { W.Mix.t_name = "adfinder"; t_workload = W.Suite.adfinder; t_weight = 1 };
  ]

let mix_requests = 16

(* Seeds other than 1 draw the traffic order but keep seed 1's tenant
   counts: the unit's cost follows the counts, and a seed must not change
   the workload's size. *)
let mix_of p =
  let make seed = W.Mix.make ~seed ~requests:mix_requests tenants in
  let base = make 7L in
  if p.defaults then base
  else
    let rec search seed =
      let m = make seed in
      if m.W.Mix.mx_counts = base.W.Mix.mx_counts then m else search (Int64.succ seed)
    in
    search p.mix_seed

let tenant_mix p =
  let options = options p in
  let mix = mix_of p in
  let cfg =
    {
      Fl.Tenancy.default with
      Fl.Tenancy.ty_jobs = 1;
      ty_options = options;
      ty_seed = p.duty_seed;
    }
  in
  let w = mix.W.Mix.mx_workload in
  (* Per tenant: eval inputs, and the baselines Tenancy.quality scores
     against (no-PGO cycles, instrumentation trained on exactly the
     tenant's requests). *)
  let per_tenant =
    List.map
      (fun (name, evals) ->
        let tw = { w with D.w_eval = evals } in
        let train =
          List.filter_map
            (fun (spec, ls) ->
              if Csspgo_support.Label_set.find ls W.Mix.tenant_key = Some name then Some spec
              else None)
            mix.W.Mix.mx_requests
        in
        let nopgo = (run_variant options D.Nopgo tw).D.o_eval.D.ev_cycles in
        let truth = (run_variant options D.Instr_pgo { tw with D.w_train = train }).D.o_annotated in
        (name, (tw, nopgo, truth)))
      mix.W.Mix.mx_tenant_evals
  in
  let refs = references (List.map (fun (_, (tw, _, _)) -> tw) per_tenant) in
  let ratio = probe_ratio options [ w ] in
  let summarize ~collected specialized () =
    let builds =
      List.concat_map
        (fun (name, sliced, blended) ->
          let _, nopgo, truth = List.assoc name per_tenant in
          List.map (fun b -> (name, b, nopgo, truth))
            (Option.to_list sliced @ [ blended ]))
        specialized
    in
    {
      binaries = List.map (fun (_, b, _, _) -> binary_of b) builds;
      pgo = List.map (fun (_, b, nopgo, truth) -> pgo_of ~baseline:nopgo ~truth b) builds;
      fingerprint =
        lazy
          (collected ()
          @ List.concat
              (List.mapi
                 (fun i (name, b, _, _) -> built_fingerprint (Printf.sprintf "%s.%d" name i) b)
                 builds));
      extra = [];
    }
  in
  let collected ~labeled ~tenants ~cycles ~samples () =
    [
      ("tenancy.blend", P.Text_io.to_string labeled.Fl.Build.lc_blend);
      ( "tenancy.flat",
        match labeled.Fl.Build.lc_flat with
        | Some f -> P.Text_io.to_string (P.Text_io.Probe_prof f)
        | None -> "" );
      ("tenancy.tenants", P.Labels.to_string tenants);
      ("tenancy.counts", Printf.sprintf "%Ld %d" cycles samples);
    ]
  in
  let tenant_workload name =
    let tw, _, _ = List.assoc name per_tenant in
    tw
  in
  {
    inputs =
      "tenant requests "
      ^ String.concat ", "
          (List.map (fun (n, c) -> Printf.sprintf "%s %d" n c) mix.W.Mix.mx_counts);
    probe_ratio = ratio;
    references = refs;
    setup_digest =
      digest_of_setup
        ( ratio,
          w.D.w_source,
          List.map (fun (n, (_, nopgo, _)) -> (n, nopgo)) per_tenant );
    black_box =
      (fun ~capture:_ () ->
        let co = Fl.Tenancy.collect cfg mix in
        let specialized =
          List.map
            (fun (s : Fl.Tenancy.specialized) ->
              let name = s.Fl.Tenancy.sp_tenant in
              let built = built_of_outcome (tenant_workload name) in
              (name, Option.map built s.Fl.Tenancy.sp_sliced, built s.Fl.Tenancy.sp_blended))
            (Fl.Tenancy.specialize cfg mix co)
        in
        summarize specialized
          ~collected:
            (collected ~labeled:co.Fl.Tenancy.co_labeled ~tenants:co.Fl.Tenancy.co_tenants
               ~cycles:co.Fl.Tenancy.co_cycles ~samples:co.Fl.Tenancy.co_samples));
    composed =
      (fun () ->
        let r = Composed.tenancy cfg mix in
        let specialized =
          List.map
            (fun (name, sliced, blended) ->
              let built = built_of_result (tenant_workload name) in
              (name, Option.map built sliced, built blended))
            r.Composed.tr_specialized
        in
        summarize specialized
          ~collected:
            (collected ~labeled:r.Composed.tr_labeled ~tenants:r.Composed.tr_tenants
               ~cycles:r.Composed.tr_cycles ~samples:r.Composed.tr_samples));
  }

let all =
  [
    { name = "ctx-recursive"; domains = 1; prepare = ctx_recursive };
    { name = "server-matrix"; domains = 1; prepare = server_matrix };
    { name = "fleet-skew"; domains = fleet_jobs; prepare = fleet_skew };
    { name = "tenant-mix"; domains = 1; prepare = tenant_mix };
  ]
