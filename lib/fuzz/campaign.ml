(* Differential fuzzing campaign runner.

   Per seed: generate a MiniC program, build a fixed -O0 reference, then
   check three oracle families against it:
   - randomly permuted pass pipelines (sampled from [Opt.Pass.all_steps],
     probes/instrumentation/layout/inlining randomized) must compute the
     same result, with [Ir.Verify] run after every pass;
   - all five [Core.Driver] PGO variants must compute the same result;
   - the probe profile's block overlap against the instrumentation ground
     truth must stay above a floor (profile-quality regression oracle).

   Failures are minimized with [Reduce] and written to a corpus directory
   as a .minic reproducer plus a .repro replay note. Everything is
   deterministic in the seed. *)

module F = Csspgo_frontend
module Ir = Csspgo_ir
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module W = Csspgo_workloads
module Core = Csspgo_core
module O = Csspgo_orchestrator
module S = Csspgo_support
module P = Csspgo_profile
module D = Core.Driver
module Fl = Csspgo_fleet
module Obs = Csspgo_obs

(* --- plans ---------------------------------------------------------- *)

type plan = {
  pl_steps : Opt.Pass.step list;
  pl_probes : bool;
  pl_instrument : bool;
  pl_inline : bool;
  pl_probes_strong : bool;
  pl_layout : [ `Hot_path | `Ext_tsp ];
}

let plan_to_string pl =
  let b c = if c then '+' else '-' in
  Printf.sprintf "steps=%s probes%c instr%c inline%c strong%c layout=%s"
    (String.concat "," (List.map Opt.Pass.step_name pl.pl_steps))
    (b pl.pl_probes) (b pl.pl_instrument) (b pl.pl_inline) (b pl.pl_probes_strong)
    (match pl.pl_layout with `Hot_path -> "hot-path" | `Ext_tsp -> "ext-tsp")

let sample_plan rng =
  let arr = Array.of_list Opt.Pass.all_steps in
  S.Rng.shuffle rng arr;
  let steps =
    List.filter (fun _ -> not (S.Rng.chance rng 0.25)) (Array.to_list arr)
  in
  (* Sometimes repeat the cleanup pair, mirroring the default pipeline's
     second constfold/simplify round. *)
  let steps =
    if S.Rng.chance rng 0.3 then steps @ [ Opt.Pass.Constfold; Opt.Pass.Simplify ]
    else steps
  in
  {
    pl_steps = steps;
    pl_probes = S.Rng.bool rng;
    pl_instrument = S.Rng.chance rng 0.3;
    pl_inline = S.Rng.bool rng;
    pl_probes_strong = S.Rng.chance rng 0.3;
    pl_layout = (if S.Rng.bool rng then `Ext_tsp else `Hot_path);
  }

(* Decouple the plan stream from the program-generation stream (Gen also
   seeds its Rng with the raw seed). *)
let plan_rng seed = S.Rng.create (Int64.logxor seed 0x9E3779B97F4A7C15L)

(* --- oracles -------------------------------------------------------- *)

type failure_kind = Result_mismatch | Verify_error | Quality_low | Crash

let kind_name = function
  | Result_mismatch -> "result-mismatch"
  | Verify_error -> "verify-error"
  | Quality_low -> "quality-low"
  | Crash -> "crash"

type site =
  | Reference
  | Plan of plan
  | Variant of D.variant
  | Quality
  | Stream of D.variant
  | Stale of { sl_variant : D.variant option; sl_drift_seed : int64; sl_edits : int }
  | Format of string  (** which leg of the format oracle family *)
  | Fleet of string  (** which leg of the fleet merge oracle family *)
  | Parcorr of string  (** which profile shape the parallel-correlation
                           oracle was checking *)
  | Health of string  (** which leg of the health telemetry oracle family *)
  | Labels of string  (** which leg of the request-label oracle family *)

let site_to_string = function
  | Reference -> "reference (-O0 baseline)"
  | Plan pl -> "plan " ^ plan_to_string pl
  | Variant v -> "pgo variant " ^ D.variant_name v
  | Quality -> "probe-vs-instrumentation profile quality"
  | Stream v -> "recorded-vs-replayed profile (" ^ D.variant_name v ^ ")"
  | Stale s ->
      (* Both seeds in the message: the campaign seed is on the FAIL line,
         the edit-script seed here, so any staleness counterexample replays
         from the CLI in one command. *)
      Printf.sprintf "stale matching %s (drift seed %Ld, %d edits)"
        (match s.sl_variant with
        | Some v -> D.variant_name v
        | None -> "probe-vs-dwarf recovery")
        s.sl_drift_seed s.sl_edits
  | Format leg -> "profile format (" ^ leg ^ ")"
  | Fleet leg -> "fleet merge (" ^ leg ^ ")"
  | Parcorr shape -> "parallel correlation (" ^ shape ^ ")"
  | Health leg -> "health telemetry (" ^ leg ^ ")"
  | Labels leg -> "request labels (" ^ leg ^ ")"

type failure = {
  fl_seed : int64;
  fl_kind : failure_kind;
  fl_site : site;
  fl_detail : string;
  fl_source : string;
  fl_minimized : string option;
}

type config = {
  cf_plans_per_seed : int;
  cf_n_funcs : int;
  cf_size : int;
  cf_fuel : int64;           (** budget for the -O0 reference run *)
  cf_variants : bool;        (** also run the five Driver PGO variants *)
  cf_quality_floor : float;
  cf_quality_min_total : int64;
      (** skip the quality oracle below this ground-truth block count:
          overlap on nearly-unexecuted programs is all noise *)
  cf_minimize : bool;
  cf_max_failures : int option;  (** stop the campaign after this many *)
  cf_stream_oracle : bool;
      (** recorded-vs-replayed profile byte-identity differential: the
          tee sink's aggregate and missing-frame table against both
          replayed from the recorded log *)
  cf_stale_oracle : bool;
      (** stale-profile matching oracle family: drift the source with a
          seeded edit script, stale-match, and check that matching never
          crashes, the stale-built binary computes the drifted program's
          -O0 result, and probe recovery >= DWARF recovery *)
  cf_stale_edits : int;      (** drift edit-script length for the oracle *)
  cf_format_oracle : bool;
      (** binary/text format oracle family: every pipeline profile dump
          must survive text -> binary -> text byte-identically, sample
          logs must round-trip through both forms, and an incremental
          (cache-warm) rebuild must produce the same binary as a clean
          one *)
  cf_fleet_oracle : bool;
      (** fleet merge oracle family: a sharded multi-instance fleet at
          full duty must produce the profile a single instance serving the
          whole stream would ([Fleet.Sim]), draining must be independent
          of the job count, and [Profile.Merge] must satisfy its laws
          (commutative, associative, weight-linear, identity-on-empty) on
          real correlated profiles from two drifted binary versions *)
  cf_parcorr_oracle : bool;
      (** parallel-correlation oracle family: sharded correlation over the
          chunk-split sample log ([Fleet.Build.correlate_chunks] /
          [Core.Par_corr]) must be byte-identical to the serial streaming
          correlator on the whole log, for every profile shape and at
          every job count — the determinism claim the fused fleet drain
          rides on. A tiny shard target forces real multi-shard merges on
          the fuzzer's short logs. *)
  cf_health_oracle : bool;
      (** health telemetry oracle family: a health-instrumented fleet
          window (fresh registry, fixed clock) must close to byte-identical
          canonical report and series JSON at -j 1 and -j 2, both
          documents must reparse as fixed points of the strict Json
          parser, [Obs.Series.merge] must satisfy its laws (commutative,
          associative, identity-on-empty) on really-recorded windows, and
          the OpenMetrics exposition must render with its [# EOF] trailer *)
  cf_label_oracle : bool;
      (** request-label oracle family: label the training stream with two
          synthetic tenants and demand (1) slice-then-merge identity —
          [Fleet.Build.correlate_labeled]'s blend is byte-identical to the
          unlabeled serial correlator on the same log, for every profile
          shape and job count, with slice weights matching the observed
          per-label sample counts; (2) label-free logs decode as the
          single implicit slice; (3) forcing v3 framing on an unlabeled
          log downgrades losslessly — the decoded log re-encodes to the
          plain v2 bytes *)
  cf_inject : (string * (Ir.Func.t -> unit)) option;
      (** deliberately broken extra pass appended to every plan pipeline —
          the harness's own mutation test *)
}

let default_config =
  {
    cf_plans_per_seed = 4;
    cf_n_funcs = 5;
    cf_size = 2;
    cf_fuel = 20_000_000L;
    cf_variants = true;
    cf_quality_floor = 0.5;
    cf_quality_min_total = 300L;
    cf_minimize = true;
    cf_max_failures = None;
    cf_stream_oracle = true;
    cf_stale_oracle = true;
    cf_stale_edits = 3;
    cf_format_oracle = true;
    cf_fleet_oracle = true;
    cf_parcorr_oracle = true;
    cf_health_oracle = true;
    cf_label_oracle = true;
    cf_inject = None;
  }

(* A constfold that "folds" conditional branches by dropping the guard and
   always taking the false edge — the planted miscompile used to prove the
   harness detects and minimizes real semantic bugs. *)
let planted_bug =
  ( "broken-constfold-drops-guard",
    fun (f : Ir.Func.t) ->
      Ir.Func.iter_blocks
        (fun b ->
          match b.Ir.Block.term with
          | Ir.Instr.Br (_, _, els) -> Ir.Block.set_term b (Ir.Instr.Jmp els)
          | _ -> ())
        f )

exception Discarded
exception Fail of failure_kind * site * string

let guarded_run site f =
  try f () with
  | Discarded -> raise Discarded
  | Fail _ as e -> raise e
  | e -> raise (Fail (Crash, site, Printexc.to_string e))

let guarded_build site f =
  try f () with
  | (Discarded | Fail _) as e -> raise e
  | Failure msg -> raise (Fail (Verify_error, site, msg))
  | e -> raise (Fail (Crash, site, Printexc.to_string e))

let run_bin ~fuel bin args =
  match Vm.Machine.run ~pmu:None ~fuel bin ~entry:"main" ~args with
  | r -> r.Vm.Machine.ret_value
  | exception Vm.Machine.Trap "fuel exhausted" -> raise Discarded

(* The -O0 reference is pure in the source, so it is hoisted through the
   artifact cache: one compile per seed, however many plans, variants, and
   minimizer replays look at it. *)
let build_reference ?cache src =
  let build () =
    let p = F.Lower.compile src in
    Opt.Pass.optimize ~config:Opt.Config.o0 p;
    Ir.Verify.check_exn p;
    Cg.Emit.emit ~options:Cg.Emit.default_options p
  in
  match cache with
  | None -> build ()
  | Some c ->
      O.Cache.memo c ~kind:"o0-reference"
        ~key:[ Printf.sprintf "%Lx" (S.Fnv.hash_string src) ]
        ~ser:(fun b -> Marshal.to_string b [])
        ~de:(fun s -> Marshal.from_string s 0)
        build

let config_of_plan pl =
  {
    Opt.Config.o2 with
    Opt.Config.inline_mode =
      (if pl.pl_inline then Opt.Config.Inline_static else Opt.Config.Inline_none);
    probes_strong = pl.pl_probes_strong;
    verify_between_passes = true;
  }

let build_plan ?inject pl src =
  let p = F.Lower.compile src in
  if pl.pl_probes then Core.Pseudo_probe.insert p;
  if pl.pl_instrument then ignore (Core.Instrument.instrument p);
  Opt.Pass.optimize_with ~config:(config_of_plan pl) ~steps:pl.pl_steps p;
  (match inject with
  | Some (_, g) ->
      Ir.Program.iter_funcs g p;
      Ir.Verify.check_exn p
  | None -> ());
  Cg.Emit.emit
    ~options:{ Cg.Emit.default_options with Cg.Emit.layout = pl.pl_layout }
    p

(* Fuzz programs are tiny: at the driver's default sampling period they
   finish within a handful of samples and every probe profile comes out
   empty. Sample much denser and repeat the training input so the quality
   oracle sees a real profile. *)
let driver_options =
  {
    D.default_options with
    D.pmu = { Vm.Machine.default_pmu with Vm.Machine.sample_period = 101 };
  }

let train_reps = 8

let workload_of ~seed src args =
  let spec = { D.rs_args = args; rs_globals = [] } in
  {
    D.w_name = Printf.sprintf "fuzz-%Ld" seed;
    w_source = src;
    w_entry = "main";
    w_train = List.init train_reps (fun _ -> spec);
    w_eval = [ spec ];
  }

let args_of_seed seed = [ Int64.of_int (Int64.to_int seed land 0xff); 17L ]

let all_variants =
  [ D.Nopgo; D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full; D.Instr_pgo ]

let total_counts p =
  let t = ref 0L in
  Ir.Program.iter_funcs (fun f -> t := Int64.add !t (Ir.Func.total_count f)) p;
  !t

type checked = C_pass | C_discard | C_fail of failure_kind * site * string

(* Run one plan against the reference result; raises [Fail] / [Discarded]. *)
let check_plan cfg pl src args ref_result =
  let site = Plan pl in
  let bin = guarded_build site (fun () -> build_plan ?inject:cfg.cf_inject pl src) in
  let r = guarded_run site (fun () -> run_bin ~fuel:(Int64.mul 4L cfg.cf_fuel) bin args) in
  if not (Int64.equal r ref_result) then
    raise
      (Fail
         ( Result_mismatch,
           site,
           Printf.sprintf "reference=%Ld plan=%Ld" ref_result r ))

(* Run one Driver PGO variant against the reference result. Submitted as a
   staged plan so the cache hooks share stages across variants of a seed —
   the reference symbol/checksum info, the probed profiling run (probe-only
   and full), and the flat probe correlation all compute once. *)
let check_variant ?hooks cfg v w args ref_result =
  let site = Variant v in
  let o =
    guarded_build site (fun () ->
        D.Plan.run ?hooks (D.Plan.make ~options:driver_options ~variant:v w))
  in
  let r =
    guarded_run site (fun () -> run_bin ~fuel:(Int64.mul 4L cfg.cf_fuel) o.D.o_binary args)
  in
  if not (Int64.equal r ref_result) then
    raise
      (Fail
         ( Result_mismatch,
           site,
           Printf.sprintf "reference=%Ld %s=%Ld" ref_result (D.variant_name v) r ));
  o

(* Recorded-vs-replayed differential: the kernel given the aggregate and
   missing-frame table that the tee sink built during the poisoned
   profiling run must reproduce its own output from both replayed out of
   the recorded log, canonical Text_io dumps byte for byte. Bounded to
   AutoFDO + full CSSPGO — between them these exercise every tee consumer
   (range aggregation, missing-frame inference) and every replay (ranges,
   tail-call edges, context reconstruction). Sharded-vs-serial replay and
   the sample-log round trips are the parcorr and format families'. *)
let stream_variants = [ D.Autofdo; D.Csspgo_full ]

let check_stream v ~seed src =
  let site = Stream v in
  let w = workload_of ~seed src (args_of_seed seed) in
  let texts replay =
    guarded_build site (fun () ->
        D.profile_pipeline_texts ~options:driver_options ~replay v w)
  in
  let recorded = texts false and replayed = texts true in
  if recorded <> replayed then begin
    let tag =
      match
        List.find_opt (fun (t, x) -> List.assoc_opt t replayed <> Some x) recorded
      with
      | Some (t, _) -> t
      | None -> "shape"
    in
    raise
      (Fail
         ( Result_mismatch,
           site,
           Printf.sprintf "recorded %s profile differs from replayed" tag ))
  end

(* The overlap oracle is only meaningful when the profiling run was long
   enough for the PMU to fire a useful number of times.  A program can
   execute hundreds of blocks and still finish in fewer cycles than one
   sampling period, in which case the probe profile is *correctly* empty
   and overlap 0.0 says nothing about correlation quality.  Require both
   enough ground-truth weight and enough expected samples. *)
let quality_min_samples = 20L

let check_quality cfg ?on_overlap ~truth ~cand ~pcycles () =
  let period =
    Int64.of_int driver_options.D.pmu.Vm.Machine.sample_period
  in
  let expected_samples = Int64.div pcycles period in
  if
    Int64.compare (total_counts truth) cfg.cf_quality_min_total >= 0
    && Int64.compare expected_samples quality_min_samples >= 0
  then begin
    let ov = Core.Quality.block_overlap ~truth cand in
    (match on_overlap with Some f -> f ov | None -> ());
    if ov < cfg.cf_quality_floor then
      raise
        (Fail
           ( Quality_low,
             Quality,
             Printf.sprintf "block overlap %.3f below floor %.2f" ov
               cfg.cf_quality_floor ))
  end

(* Stale-matching oracle family. Drift the source with a seeded edit script
   (seed derived from the campaign seed, decoupled from the generation and
   plan streams), then for each sampling variant run the stale pipeline —
   profile version N, match + rebuild version N+1 — and check:
   - matching and the stale-guided rebuild never crash;
   - the stale-built binary computes the drifted program's own -O0 result
     (drift edits may legitimately change semantics, so the N+1 reference
     is the oracle, not the original one);
   - count recovery of the probe matcher is never below the DWARF matcher's
     (the paper's stability claim), once the profiling run was long enough
     to carry signal. *)
let drift_seed_of seed = Int64.logxor seed 0xC3A5C85C97CB3127L

let check_stale ?hooks ?cache cfg ~seed src args =
  let drift_seed = drift_seed_of seed in
  let edits = cfg.cf_stale_edits in
  let site v = Stale { sl_variant = v; sl_drift_seed = drift_seed; sl_edits = edits } in
  let d =
    guarded_build (site None) (fun () ->
        W.Drift.apply ~seed:drift_seed ~edits src)
  in
  let new_src = d.W.Drift.dr_source in
  let new_ref =
    let bin = guarded_build (site None) (fun () -> build_reference ?cache new_src) in
    guarded_run (site None) (fun () -> run_bin ~fuel:cfg.cf_fuel bin args)
  in
  let w = workload_of ~seed src args in
  let check v =
    let o =
      guarded_build (site (Some v)) (fun () ->
          D.Plan.run ?hooks
            (D.Plan.make_stale ~options:driver_options ~variant:v
               ~stale_source:new_src w))
    in
    let r =
      guarded_run (site (Some v)) (fun () ->
          run_bin ~fuel:(Int64.mul 4L cfg.cf_fuel) o.D.o_binary args)
    in
    if not (Int64.equal r new_ref) then
      raise
        (Fail
           ( Result_mismatch,
             site (Some v),
             Printf.sprintf "N+1 reference=%Ld stale %s=%Ld" new_ref
               (D.variant_name v) r ));
    o
  in
  let o_dwarf = check D.Autofdo in
  let o_probe = check D.Csspgo_probe_only in
  let (_ : D.outcome) = check D.Csspgo_full in
  let period = Int64.of_int driver_options.D.pmu.Vm.Machine.sample_period in
  let expected_samples = Int64.div o_probe.D.o_profiling_cycles period in
  let rate (o : D.outcome) =
    match o.D.o_stale_report with
    | Some r -> Core.Stale_match.recovery_rate r
    | None -> 1.0
  in
  if Int64.compare expected_samples quality_min_samples >= 0 then begin
    let pr = rate o_probe and dr = rate o_dwarf in
    if pr +. 1e-9 < dr then
      raise
        (Fail
           ( Quality_low,
             site None,
             Printf.sprintf "probe recovery %.4f below dwarf recovery %.4f" pr dr ))
  end

(* Format oracle family (Binary_io / Sample_log / incremental rebuilds):
   - every canonical text profile the pipeline produces must survive
     text -> binary -> text byte-identically (canonical text equality is
     structural equality, so this also proves the binary path feeds the
     pipeline the same profile);
   - a recorded sample log must round-trip through both its text and its
     binary form;
   - with a warm artifact cache, a repeat build must reuse the final
     binary outright and an incremental rebuild of a drifted source must
     produce a binary byte-identical to a cold clean rebuild. *)

(* Everything deterministic in a [Mach.binary] except [addr_index], whose
   hash-table layout depends on insertion history. [No_sharing] keeps the
   projection structural: binaries respliced from cached functions carry
   different subterm sharing than freshly emitted ones. *)
let bin_projection (b : Cg.Mach.binary) =
  Marshal.to_string
    ( b.Cg.Mach.funcs,
      b.Cg.Mach.insts,
      b.Cg.Mach.probes,
      b.Cg.Mach.n_counters,
      b.Cg.Mach.globals,
      b.Cg.Mach.text_size,
      b.Cg.Mach.debug_size,
      b.Cg.Mach.probe_meta_size )
    [ Marshal.No_sharing ]

let check_format ?cache ~seed src args =
  let w = workload_of ~seed src args in
  List.iter
    (fun v ->
      let site = Format ("text-binary round-trip " ^ D.variant_name v) in
      let texts =
        guarded_build site (fun () ->
            D.profile_pipeline_texts ~options:driver_options ~replay:false v w)
      in
      List.iter
        (fun (tag, text) ->
          (* Tiny fuzz programs can yield empty dumps (e.g. autofdo with no
             surviving samples); empty text has no kind to round-trip. *)
          if String.length (String.trim text) = 0 then ()
          else
          guarded_build site (fun () ->
              let p = P.Text_io.of_string text in
              let b = P.Binary_io.encode p in
              if not (P.Binary_io.is_binary b) then
                raise (Fail (Result_mismatch, site, tag ^ ": encoding not sniffable"));
              match P.Binary_io.decode b with
              | Error e ->
                  raise
                    (Fail
                       ( Result_mismatch,
                         site,
                         tag ^ ": decode failed: " ^ S.Wire.error_to_string e ))
              | Ok p' ->
                  if not (String.equal (P.Text_io.to_string p') text) then
                    raise
                      (Fail
                         ( Result_mismatch,
                           site,
                           tag ^ ": binary round-trip not byte-identical" ))))
        texts)
    stream_variants;
  let site = Format "sample-log round-trip" in
  guarded_build site (fun () ->
      (* Probed profiling build, training runs streamed straight into a
         recording log. *)
      let prog = F.Lower.compile w.D.w_source in
      Core.Pseudo_probe.insert prog;
      Opt.Pass.optimize ~config:driver_options.D.opt_profiling prog;
      let bin = Cg.Emit.emit ~options:driver_options.D.emit_opts prog in
      let log = Vm.Sample_log.create () in
      List.iter
        (fun (spec : D.run_spec) ->
          ignore
            (Vm.Machine.run ~pmu:(Some driver_options.D.pmu)
               ~sink:(Vm.Sample_log.sink log) ~globals_init:spec.D.rs_globals
               ~args:spec.D.rs_args bin ~entry:w.D.w_entry))
        w.D.w_train;
      let txt = Vm.Sample_log.to_text log in
      (match Vm.Sample_log.of_text txt with
      | Ok log' when String.equal (Vm.Sample_log.to_text log') txt -> ()
      | Ok _ ->
          raise (Fail (Result_mismatch, site, "text round-trip not byte-identical"))
      | Error e -> raise (Fail (Result_mismatch, site, S.Wire.error_to_string e)));
      match Vm.Sample_log.decode (Vm.Sample_log.encode log) with
      | Ok log' when String.equal (Vm.Sample_log.to_text log') txt -> ()
      | Ok _ ->
          raise (Fail (Result_mismatch, site, "binary round-trip not byte-identical"))
      | Error e -> raise (Fail (Result_mismatch, site, S.Wire.error_to_string e)));
  let site = Format "incremental-vs-clean rebuild" in
  guarded_build site (fun () ->
      ignore cache;
      let c = O.Cache.create () in
      let h = O.Orchestrate.hooks c in
      let plan = D.Plan.make ~options:driver_options ~variant:D.Csspgo_full w in
      let cold = D.Plan.run ~hooks:h plan in
      let warm = D.Plan.run ~hooks:h plan in
      if
        not
          (String.equal (bin_projection cold.D.o_binary) (bin_projection warm.D.o_binary))
      then raise (Fail (Result_mismatch, site, "warm rebuild differs from cold build"));
      let d = W.Drift.apply ~seed:(drift_seed_of seed) ~edits:1 src in
      let stale_plan =
        D.Plan.make_stale ~options:driver_options ~variant:D.Csspgo_full
          ~stale_source:d.W.Drift.dr_source w
      in
      let inc = D.Plan.run ~hooks:h stale_plan in
      let clean = D.Plan.run stale_plan in
      if
        not
          (String.equal (bin_projection inc.D.o_binary) (bin_projection clean.D.o_binary))
      then
        raise
          (Fail (Result_mismatch, site, "incremental rebuild differs from clean rebuild")))

(* Fleet merge oracle family (Fleet.Sim / Profile.Merge):
   - a 3-instance 2-shard fleet at duty 1.0 must reproduce the profile of
     one instance serving the whole stream (contiguous partitioning +
     deterministic drain order), and draining with 2 jobs must match 1;
   - Profile.Merge's laws hold on real correlated profiles: the oracle
     correlates two drifted binary versions and checks commutativity,
     associativity, weight-linearity and identity-on-empty against
     canonical text bytes, on both the context tries and their flattened
     probe views. *)

let fleet_config =
  {
    Fl.Sim.default with
    Fl.Sim.f_options = driver_options;
    f_shards = 2;
    f_batch_requests = 3;
  }

let check_fleet ~seed src args =
  let w = workload_of ~seed src args in
  let version ?(id = 0) ~n source =
    { Fl.Sim.v_id = id; v_source = source; v_weight = 1L; v_instances = n }
  in
  let ts (o : Fl.Sim.outcome) = P.Text_io.to_string o.Fl.Sim.fs_profile in
  let site = Fleet "single-vs-sharded identity" in
  guarded_build site (fun () ->
      let single = Fl.Sim.run fleet_config ~workload:w ~versions:[ version ~n:1 src ] in
      let fleet = Fl.Sim.run fleet_config ~workload:w ~versions:[ version ~n:3 src ] in
      if not (String.equal (ts single) (ts fleet)) then
        raise
          (Fail
             ( Result_mismatch,
               site,
               "3-instance fleet profile differs from single-instance baseline" ));
      let fleet2 =
        Fl.Sim.run
          { fleet_config with Fl.Sim.f_jobs = 2 }
          ~workload:w
          ~versions:[ version ~n:3 src ]
      in
      if not (String.equal (ts fleet) (ts fleet2)) then
        raise (Fail (Result_mismatch, site, "-j 2 drain differs from -j 1")));
  let site = Fleet "merge laws" in
  guarded_build site (fun () ->
      let d = W.Drift.apply ~seed:(drift_seed_of seed) ~edits:2 src in
      let out =
        Fl.Sim.run fleet_config ~workload:w
          ~versions:
            [ version ~id:0 ~n:2 src; version ~id:1 ~n:2 d.W.Drift.dr_source ]
      in
      let p0, p1 =
        match out.Fl.Sim.fs_per_version with
        | [ a; b ] -> (a.Fl.Sim.pv_profile, b.Fl.Sim.pv_profile)
        | _ -> raise (Fail (Result_mismatch, site, "expected two versions"))
      in
      let laws kind name p0 p1 =
        let fail leg =
          raise (Fail (Result_mismatch, site, name ^ ": merge not " ^ leg))
        in
        let wtd l = P.Text_io.to_string (P.Merge.weighted ~kind l) in
        let merge2 a b = P.Merge.weighted ~kind [ (1L, a); (1L, b) ] in
        (* a distinct third profile for associativity *)
        let p2 = P.Merge.weighted ~kind [ (2L, p0) ] in
        if not (String.equal (wtd [ (1L, p0); (1L, p1) ]) (wtd [ (1L, p1); (1L, p0) ]))
        then fail "commutative";
        if
          not
            (String.equal
               (P.Text_io.to_string (merge2 (merge2 p0 p1) p2))
               (P.Text_io.to_string (merge2 p0 (merge2 p1 p2))))
        then fail "associative";
        if
          not
            (String.equal
               (wtd [ (3L, p0) ])
               (wtd [ (1L, p0); (1L, p0); (1L, p0) ]))
        then fail "weight-linear";
        if
          not
            (String.equal
               (P.Text_io.to_string (merge2 p0 (P.Merge.empty kind)))
               (P.Text_io.to_string p0))
        then fail "identity-on-empty"
      in
      laws P.Text_io.Ctx "ctx" p0 p1;
      let flatten p =
        match p with
        | P.Text_io.Ctx_prof trie -> P.Text_io.Probe_prof (P.Merge.flatten_ctx trie)
        | _ -> raise (Fail (Result_mismatch, site, "fleet profile not a ctx trie"))
      in
      laws P.Text_io.Probe "flat" (flatten p0) (flatten p1))

(* Parallel-correlation oracle family (Core.Par_corr / Fleet.Build):
   correlate one training log twice per profile shape — serially over the
   whole log, and sharded over its chunk-split form at several job counts
   — and demand byte-identical canonical text (trie plus flat baseline for
   Ctx). A tiny chunk size / shard target forces multiple shards even on
   the fuzzer's short logs, so the exactness of every per-shard reduction
   (counter addition, edge-set union, equal-weight Merge) is actually
   exercised, not vacuously single-sharded. *)

let parcorr_chunk = 16

let check_parcorr ~seed src args =
  let w = workload_of ~seed src args in
  List.iter
    (fun shape ->
      let site = Parcorr (Fl.Build.shape_name shape) in
      guarded_build site (fun () ->
          let b =
            Fl.Build.profiling_build ~options:driver_options ~shape ~source:src
          in
          let log = Vm.Sample_log.create () in
          List.iter
            (fun (spec : D.run_spec) ->
              ignore
                (Vm.Machine.run ~pmu:(Some driver_options.D.pmu)
                   ~sink:(Vm.Sample_log.sink log)
                   ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args
                   b.Fl.Build.vb_bin ~entry:w.D.w_entry))
            w.D.w_train;
          let text (p, flat) =
            P.Text_io.to_string p
            ^
            match flat with
            | Some f -> P.Text_io.to_string (P.Text_io.Probe_prof f)
            | None -> ""
          in
          let serial =
            text (Fl.Build.correlate ~options:driver_options ~shape b log)
          in
          let chunks = Vm.Sample_log.split ~chunk:parcorr_chunk log in
          List.iter
            (fun jobs ->
              let par =
                text
                  (Fl.Build.correlate_chunks ~shard_target:parcorr_chunk ~jobs
                     ~options:driver_options ~shape b chunks)
              in
              if not (String.equal serial par) then
                raise
                  (Fail
                     ( Result_mismatch,
                       site,
                       Printf.sprintf
                         "-j %d sharded correlation differs from serial" jobs )))
            [ 1; 2 ]))
    [ Fl.Build.Lines; Fl.Build.Probes; Fl.Build.Ctx ]

(* Health telemetry oracle family (Obs.Series / Obs.Health / Obs.Export):
   - a health-instrumented fleet window (fresh registry per run, fixed
     clock) must close to byte-identical canonical report and series JSON
     at -j 1 and -j 2 — the determinism claim the fleet health reports
     ride on;
   - both canonical documents must reparse through the strict Json parser
     as print/parse fixed points;
   - [Obs.Series.merge]'s laws (commutative, associative,
     identity-on-empty) hold on the really-recorded windows, compared as
     canonical JSON bytes;
   - the OpenMetrics exposition renders without crashing and carries the
     spec's terminating "# EOF" line. *)

let check_health ~seed src args =
  let w = workload_of ~seed src args in
  let version n =
    { Fl.Sim.v_id = 0; v_source = src; v_weight = 1L; v_instances = n }
  in
  let window jobs =
    let metrics = Obs.Metrics.create () in
    let series = Obs.Series.create () in
    let tracker = Obs.Health.create () in
    let (_ : Fl.Sim.outcome) =
      Fl.Sim.run ~obs:metrics ~series ~health:tracker
        { fleet_config with Fl.Sim.f_jobs = jobs }
        ~workload:w ~versions:[ version 2 ]
    in
    (series, tracker)
  in
  let sj s = Obs.Json.to_string (Obs.Series.to_json s) in
  let site = Health "report determinism" in
  let s1, s2 =
    guarded_build site (fun () ->
        let s1, t1 = window 1 in
        let s2, t2 = window 2 in
        let rj t =
          Obs.Json.to_string (Obs.Health.report_to_json (Obs.Health.report t))
        in
        if not (String.equal (rj t1) (rj t2)) then
          raise
            (Fail (Result_mismatch, site, "-j 2 health report differs from -j 1"));
        if not (String.equal (sj s1) (sj s2)) then
          raise (Fail (Result_mismatch, site, "-j 2 series differs from -j 1"));
        List.iter
          (fun (tag, txt) ->
            match Obs.Json.parse txt with
            | Ok j when String.equal (Obs.Json.to_string j) txt -> ()
            | Ok _ ->
                raise
                  (Fail
                     ( Result_mismatch,
                       site,
                       tag ^ ": canonical JSON not a print/parse fixed point" ))
            | Error e -> raise (Fail (Crash, site, tag ^ ": " ^ e)))
          [ ("report", rj t1); ("series", sj s1) ];
        (s1, s2))
  in
  let site = Health "series merge laws" in
  guarded_build site (fun () ->
      let fail leg = raise (Fail (Result_mismatch, site, "merge not " ^ leg)) in
      let m = Obs.Series.merge in
      if not (String.equal (sj (m s1 s2)) (sj (m s2 s1))) then fail "commutative";
      (* a third operand with doubled deltas, so association is not vacuous *)
      let s3 = m s1 s2 in
      if not (String.equal (sj (m (m s1 s2) s3)) (sj (m s1 (m s2 s3)))) then
        fail "associative";
      if not (String.equal (sj (m s1 (Obs.Series.create ()))) (sj s1)) then
        fail "identity-on-empty");
  let site = Health "openmetrics exposition" in
  guarded_build site (fun () ->
      let metrics = Obs.Metrics.create () in
      let series = Obs.Series.create () in
      let (_ : Fl.Sim.outcome) =
        Fl.Sim.run ~obs:metrics ~series fleet_config ~workload:w
          ~versions:[ version 1 ]
      in
      let check tag txt =
        let eof = "# EOF\n" in
        let n = String.length txt and k = String.length eof in
        if n < k || not (String.equal (String.sub txt (n - k) k) eof) then
          raise
            (Fail
               (Result_mismatch, site, tag ^ ": exposition missing # EOF trailer"))
      in
      check "snapshot" (Obs.Export.snapshot (Obs.Metrics.snapshot metrics));
      check "series" (Obs.Export.series series))

(* Request-label oracle family (Vm.Sample_log labels / Fleet.Build
   .correlate_labeled / Profile.Labels): label the training runs with two
   alternating synthetic tenants, then demand
   - slice-then-merge identity: the label-sliced correlation's blend is
     byte-identical to the serial unlabeled correlator on the same log,
     per profile shape and at -j 1 and -j 2, slice weights equal the
     observed per-label sample counts, and (probe shape, where counts are
     additive with no trim in play) [Profile.Labels.blend] of the slices
     reconstructs the blend;
   - labeled blobs are encode/decode fixed points preserving the counts;
   - label-free logs decode as the single implicit slice;
   - forcing v3 framing on an unlabeled log downgrades losslessly: the
     decoded log re-encodes to the plain v2 bytes. *)

let check_labels ~seed src args =
  let w = workload_of ~seed src args in
  let tenant i =
    S.Label_set.of_list
      [ ("tenant", if i land 1 = 0 then "even" else "odd") ]
  in
  let record (b : Fl.Build.built) log =
    List.iteri
      (fun i (spec : D.run_spec) ->
        ignore
          (Vm.Machine.run ~pmu:(Some driver_options.D.pmu)
             ~sink:(Vm.Sample_log.sink log) ~labels:(tenant i)
             ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args
             b.Fl.Build.vb_bin ~entry:w.D.w_entry))
      w.D.w_train
  in
  List.iter
    (fun shape ->
      let site = Labels (Fl.Build.shape_name shape) in
      guarded_build site (fun () ->
          let b =
            Fl.Build.profiling_build ~options:driver_options ~shape ~source:src
          in
          let log = Vm.Sample_log.create () in
          record b log;
          let text (p, flat) =
            P.Text_io.to_string p
            ^
            match flat with
            | Some f -> P.Text_io.to_string (P.Text_io.Probe_prof f)
            | None -> ""
          in
          let serial =
            text (Fl.Build.correlate ~options:driver_options ~shape b log)
          in
          List.iter
            (fun jobs ->
              let lc =
                Fl.Build.correlate_labeled ~jobs ~options:driver_options ~shape
                  b log
              in
              if
                not
                  (String.equal serial
                     (text (lc.Fl.Build.lc_blend, lc.Fl.Build.lc_flat)))
              then
                raise
                  (Fail
                     ( Result_mismatch,
                       site,
                       Printf.sprintf
                         "-j %d label-sliced blend differs from unlabeled \
                          serial correlation"
                         jobs ));
              let weights =
                List.map
                  (fun s ->
                    (s.P.Labels.sl_label, Int64.to_int s.P.Labels.sl_weight))
                  (P.Labels.slices lc.Fl.Build.lc_slices)
              in
              if weights <> Vm.Sample_log.label_counts log then
                raise
                  (Fail
                     ( Result_mismatch,
                       site,
                       Printf.sprintf
                         "-j %d slice weights differ from observed label \
                          counts"
                         jobs ));
              match shape with
              | Fl.Build.Probes ->
                  if
                    P.Labels.n_slices lc.Fl.Build.lc_slices > 0
                    && not
                         (String.equal
                            (P.Text_io.to_string
                               (P.Labels.blend lc.Fl.Build.lc_slices))
                            (P.Text_io.to_string lc.Fl.Build.lc_blend))
                  then
                    raise
                      (Fail
                         ( Result_mismatch,
                           site,
                           "Labels.blend of probe slices differs from blend" ))
              | Fl.Build.Lines | Fl.Build.Ctx -> ())
            [ 1; 2 ]))
    [ Fl.Build.Lines; Fl.Build.Probes; Fl.Build.Ctx ];
  let site = Labels "v3 framing" in
  guarded_build site (fun () ->
      let b =
        Fl.Build.profiling_build ~options:driver_options ~shape:Fl.Build.Probes
          ~source:src
      in
      let log = Vm.Sample_log.create () in
      record b log;
      let counts = Vm.Sample_log.label_counts in
      let blob = Vm.Sample_log.encode log in
      (match Vm.Sample_log.decode blob with
      | Error e ->
          raise
            (Fail
               ( Crash,
                 site,
                 "labeled blob rejected: " ^ S.Wire.error_to_string e ))
      | Ok back ->
          if counts back <> counts log then
            raise
              (Fail
                 (Result_mismatch, site, "decode does not preserve label counts"));
          if not (String.equal (Vm.Sample_log.encode back) blob) then
            raise
              (Fail
                 ( Result_mismatch,
                   site,
                   "labeled blob not an encode/decode fixed point" )));
      let plain = Vm.Sample_log.unlabeled log in
      let pblob = Vm.Sample_log.encode plain in
      (match Vm.Sample_log.decode pblob with
      | Error e ->
          raise
            (Fail
               ( Crash,
                 site,
                 "unlabeled blob rejected: " ^ S.Wire.error_to_string e ))
      | Ok back -> (
          match counts back with
          | [] when Vm.Sample_log.n_samples back = 0 -> ()
          | [ (ls, n) ]
            when S.Label_set.is_empty ls && n = Vm.Sample_log.n_samples back ->
              ()
          | _ ->
              raise
                (Fail
                   ( Result_mismatch,
                     site,
                     "label-free log is not the single implicit slice" ))));
      let forced = Vm.Sample_log.encode ~frame:`V3 plain in
      match Vm.Sample_log.decode forced with
      | Error e ->
          raise
            (Fail
               ( Crash,
                 site,
                 "forced-v3 unlabeled blob rejected: "
                 ^ S.Wire.error_to_string e ))
      | Ok back ->
          if not (String.equal (Vm.Sample_log.encode back) pblob) then
            raise
              (Fail
                 ( Result_mismatch,
                   site,
                   "v3 -> v2 downgrade of an unlabeled log is not lossless" )))

(* Classify one source. [only] restricts the check to a single failing site
   — the focused replay the minimizer drives; [reducing] makes sources that
   no longer parse uninteresting instead of crash reports. *)
let classify ?(reducing = false) ?only ?on_overlap ?cache (cfg : config) ~seed src =
  let args = args_of_seed seed in
  let hooks = Option.map O.Orchestrate.hooks cache in
  try
    let ref_result =
      let bin = guarded_build Reference (fun () -> build_reference ?cache src) in
      guarded_run Reference (fun () -> run_bin ~fuel:cfg.cf_fuel bin args)
    in
    (match only with
    | Some Reference -> ()
    | Some (Plan pl) -> check_plan cfg pl src args ref_result
    | Some (Variant v) ->
        ignore (check_variant ?hooks cfg v (workload_of ~seed src args) args ref_result)
    | Some Quality ->
        let w = workload_of ~seed src args in
        let truth =
          (guarded_build (Variant D.Instr_pgo) (fun () ->
               D.Plan.run ?hooks
                 (D.Plan.make ~options:driver_options ~variant:D.Instr_pgo w)))
            .D.o_annotated
        in
        let cand_o =
          guarded_build (Variant D.Csspgo_probe_only) (fun () ->
              D.Plan.run ?hooks
                (D.Plan.make ~options:driver_options ~variant:D.Csspgo_probe_only w))
        in
        check_quality cfg ?on_overlap ~truth ~cand:cand_o.D.o_annotated
          ~pcycles:cand_o.D.o_profiling_cycles ()
    | Some (Stream v) -> check_stream v ~seed src
    | Some (Stale _) ->
        (* The whole family replays: minimization only needs "same kind". *)
        check_stale ?hooks ?cache cfg ~seed src args
    | Some (Format _) -> check_format ?cache ~seed src args
    | Some (Fleet _) -> check_fleet ~seed src args
    | Some (Parcorr _) -> check_parcorr ~seed src args
    | Some (Health _) -> check_health ~seed src args
    | Some (Labels _) -> check_labels ~seed src args
    | None ->
        let rng = plan_rng seed in
        for _ = 1 to cfg.cf_plans_per_seed do
          check_plan cfg (sample_plan rng) src args ref_result
        done;
        if cfg.cf_variants then begin
          let w = workload_of ~seed src args in
          let outcomes =
            List.map
              (fun v -> (v, check_variant ?hooks cfg v w args ref_result))
              all_variants
          in
          let truth = (List.assq D.Instr_pgo outcomes).D.o_annotated in
          let cand_o = List.assq D.Csspgo_probe_only outcomes in
          check_quality cfg ?on_overlap ~truth ~cand:cand_o.D.o_annotated
            ~pcycles:cand_o.D.o_profiling_cycles ()
        end;
        if cfg.cf_stream_oracle then
          List.iter (fun v -> check_stream v ~seed src) stream_variants;
        if cfg.cf_stale_oracle && cfg.cf_stale_edits > 0 then
          check_stale ?hooks ?cache cfg ~seed src args;
        if cfg.cf_format_oracle then check_format ?cache ~seed src args;
        if cfg.cf_fleet_oracle then check_fleet ~seed src args;
        if cfg.cf_parcorr_oracle then check_parcorr ~seed src args;
        if cfg.cf_health_oracle then check_health ~seed src args;
        if cfg.cf_label_oracle then check_labels ~seed src args);
    C_pass
  with
  | Discarded -> C_discard
  | Fail (k, s, d) -> C_fail (k, s, d)
  | (F.Lexer.Lex_error _ | F.Parser.Parse_error _ | F.Lower.Lower_error _) when reducing
    ->
      C_pass

(* --- campaign ------------------------------------------------------- *)

type stats = {
  mutable st_runs : int;
  mutable st_discards : int;
  mutable st_mismatches : int;
  mutable st_verify_errors : int;
  mutable st_quality_lows : int;
  mutable st_crashes : int;
  mutable st_min_overlap : float;  (** 1.0 when no quality check ever ran *)
  mutable st_failures : failure list;  (** most recent first *)
}

let n_failures st =
  st.st_mismatches + st.st_verify_errors + st.st_quality_lows + st.st_crashes

let pp_stats fmt st =
  Format.fprintf fmt
    "runs %d  discards %d (%.1f%%)  failures %d (mismatch %d, verify %d, quality %d, \
     crash %d)  min-overlap %.3f"
    st.st_runs st.st_discards
    (if st.st_runs = 0 then 0.0
     else 100.0 *. float_of_int st.st_discards /. float_of_int st.st_runs)
    (n_failures st) st.st_mismatches st.st_verify_errors st.st_quality_lows
    st.st_crashes st.st_min_overlap

let interesting ?cache cfg ~seed site kind cand =
  match classify ~reducing:true ~only:site ?cache cfg ~seed cand with
  | C_fail (k, _, _) -> k = kind
  | C_pass | C_discard -> false

let repro_command cfg ~seed =
  Printf.sprintf
    "csspgo_tool fuzz --seeds %Ld-%Ld --plans %d --n-funcs %d --size %d%s%s%s%s%s%s%s%s%s%s%s --out corpus/"
    seed seed cfg.cf_plans_per_seed cfg.cf_n_funcs cfg.cf_size
    (if cfg.cf_variants then "" else " --no-variants")
    (if cfg.cf_stream_oracle then "" else " --no-stream-oracle")
    (if cfg.cf_stale_oracle then "" else " --no-stale-oracle")
    (if cfg.cf_format_oracle then "" else " --no-format-oracle")
    (if cfg.cf_fleet_oracle then "" else " --no-fleet-oracle")
    (if cfg.cf_parcorr_oracle then "" else " --no-parcorr-oracle")
    (if cfg.cf_health_oracle then "" else " --no-health-oracle")
    (if cfg.cf_label_oracle then "" else " --no-label-oracle")
    (if cfg.cf_stale_edits = default_config.cf_stale_edits then ""
     else Printf.sprintf " --stale-edits %d" cfg.cf_stale_edits)
    (if cfg.cf_quality_floor = default_config.cf_quality_floor then ""
     else Printf.sprintf " --quality-floor %g" cfg.cf_quality_floor)
    (* a custom cf_inject is not expressible on the CLI; --inject-bug is
       the closest replay for any injection *)
    (match cfg.cf_inject with None -> "" | Some _ -> " --inject-bug")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let write_corpus dir cfg fl =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let base = Filename.concat dir (Printf.sprintf "seed-%Ld" fl.fl_seed) in
  (match fl.fl_minimized with
  | Some m ->
      write_file (base ^ ".minic") m;
      write_file (base ^ ".orig.minic") fl.fl_source
  | None -> write_file (base ^ ".minic") fl.fl_source);
  write_file (base ^ ".repro")
    (Printf.sprintf
       "# csspgo fuzz reproducer\n\
        # seed:   %Ld\n\
        # oracle: %s\n\
        # site:   %s\n\
        # detail: %s\n\
        # lines:  %d (original %d)\n\
        # replay: %s\n"
       fl.fl_seed (kind_name fl.fl_kind) (site_to_string fl.fl_site) fl.fl_detail
       (Reduce.count_source_lines
          (Option.value fl.fl_minimized ~default:fl.fl_source))
       (Reduce.count_source_lines fl.fl_source)
       (repro_command cfg ~seed:fl.fl_seed))

let run_seed ~(stats : stats) ?cache (cfg : config) seed =
  let src = W.Gen.random_source ~n_funcs:cfg.cf_n_funcs ~size:cfg.cf_size ~seed () in
  let on_overlap ov = if ov < stats.st_min_overlap then stats.st_min_overlap <- ov in
  match classify ~on_overlap ?cache cfg ~seed src with
  | C_pass -> None
  | C_discard ->
      stats.st_discards <- stats.st_discards + 1;
      None
  | C_fail (kind, site, detail) ->
      let minimized =
        if cfg.cf_minimize then
          Some (Reduce.minimize ~check:(interesting ?cache cfg ~seed site kind) src)
        else None
      in
      Some
        {
          fl_seed = seed;
          fl_kind = kind;
          fl_site = site;
          fl_detail = detail;
          fl_source = src;
          fl_minimized = minimized;
        }

let fresh_stats () =
  {
    st_runs = 0;
    st_discards = 0;
    st_mismatches = 0;
    st_verify_errors = 0;
    st_quality_lows = 0;
    st_crashes = 0;
    st_min_overlap = 1.0;
    st_failures = [];
  }

let run ?out_dir ?(progress = fun (_ : stats) -> ()) ?cache ?(obs = Obs.Metrics.null)
    ?(jobs = 1) (cfg : config) ~seeds:(lo, hi) =
  (* Without a caller-provided cache the campaign still wants the per-seed
     stage sharing (reference, profiling runs, correlations), so it makes a
     private in-memory one. *)
  let cache = match cache with Some c -> c | None -> O.Cache.create () in
  (* Registry bumps happen only at the (seed-ordered) merge points below,
     so the counts are identical whatever [jobs] is. *)
  let mbump name n = if n > 0 then Obs.Metrics.bump (Obs.Metrics.counter obs name) n in
  let st = fresh_stats () in
  let stop () =
    match cfg.cf_max_failures with Some n -> n_failures st >= n | None -> false
  in
  let record fl =
    (match fl.fl_kind with
    | Result_mismatch -> st.st_mismatches <- st.st_mismatches + 1
    | Verify_error -> st.st_verify_errors <- st.st_verify_errors + 1
    | Quality_low -> st.st_quality_lows <- st.st_quality_lows + 1
    | Crash -> st.st_crashes <- st.st_crashes + 1);
    st.st_failures <- fl :: st.st_failures;
    match out_dir with Some dir -> write_corpus dir cfg fl | None -> ()
  in
  if jobs <= 1 then begin
    let s = ref lo in
    while !s <= hi && not (stop ()) do
      let seed = Int64.of_int !s in
      st.st_runs <- st.st_runs + 1;
      mbump "fuzz.seeds" 1;
      let d0 = st.st_discards in
      (match run_seed ~stats:st ~cache cfg seed with
      | None -> ()
      | Some fl ->
          record fl;
          mbump "fuzz.failures" 1);
      mbump "fuzz.discards" (st.st_discards - d0);
      progress st;
      incr s
    done;
    st
  end
  else begin
    (* Seeds are independent, so batches run across domains; each seed
       accumulates into a private stats record and the batch merges in seed
       order, reproducing the serial campaign's statistics (and its
       [cf_max_failures] early stop) exactly — a batch only overshoots in
       wasted work, never in reported results. *)
    let s = ref lo in
    while !s <= hi && not (stop ()) do
      let n = min (2 * jobs) (hi - !s + 1) in
      let batch = List.init n (fun i -> Int64.of_int (!s + i)) in
      let results =
        O.Scheduler.map ~jobs
          (fun seed ->
            let local = fresh_stats () in
            let fl = run_seed ~stats:local ~cache cfg seed in
            (local, fl))
          batch
      in
      List.iter
        (fun (local, fl) ->
          if not (stop ()) then begin
            st.st_runs <- st.st_runs + 1;
            mbump "fuzz.seeds" 1;
            st.st_discards <- st.st_discards + local.st_discards;
            mbump "fuzz.discards" local.st_discards;
            if local.st_min_overlap < st.st_min_overlap then
              st.st_min_overlap <- local.st_min_overlap;
            (match fl with
            | None -> ()
            | Some fl ->
                record fl;
                mbump "fuzz.failures" 1);
            progress st
          end)
        results;
      s := !s + n
    done;
    st
  end
