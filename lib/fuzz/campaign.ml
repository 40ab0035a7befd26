(* Differential fuzzing campaign runner.

   Per seed: generate a MiniC program, build a fixed -O0 reference, then
   run the oracle families of [families] against it, in table order:
   permuted pass pipelines, the five [Core.Driver] PGO variants with the
   probe-vs-instrumentation quality check, and the profile-level
   differentials (streams, staleness, formats, fleets, parallel
   correlation, health telemetry, request labels). [cf_skip] names the
   families to leave out.

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
  | Stream v -> "Driver-vs-fleet profile (" ^ D.variant_name v ^ ")"
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
  cf_quality_floor : float;
  cf_minimize : bool;
  cf_max_failures : int option;  (** stop the campaign after this many *)
  cf_skip : string list;  (** names of the [families] not to run *)
  cf_stale_edits : int;      (** drift edit-script length for the stale family *)
  cf_inject : (string * (Ir.Func.t -> unit)) option;
      (** deliberately broken extra pass appended to every plan pipeline —
          the harness's own mutation test *)
}

let default_config =
  {
    cf_plans_per_seed = 4;
    cf_n_funcs = 5;
    cf_size = 2;
    cf_quality_floor = 0.5;
    cf_minimize = true;
    cf_max_failures = None;
    cf_skip = [];
    cf_stale_edits = 3;
    cf_inject = None;
  }

(* Fuel for the -O0 reference run; a build under test gets four times as
   much. *)
let fuel = 20_000_000L
let build_fuel = Int64.mul 4L fuel

(* Skip the quality oracle below this ground-truth block count: overlap on
   nearly-unexecuted programs is all noise. *)
let quality_min_total = 300L

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

let fail kind site fmt = Printf.ksprintf (fun detail -> raise (Fail (kind, site, detail))) fmt

let guarded_run site f =
  try f () with
  | (Discarded | Fail _) as e -> raise e
  | e -> fail Crash site "%s" (Printexc.to_string e)

let guarded_build site f =
  try f () with
  | (Discarded | Fail _) as e -> raise e
  | Failure msg -> fail Verify_error site "%s" msg
  | e -> fail Crash site "%s" (Printexc.to_string e)

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
  Cg.Emit.emit ~options:{ Cg.Emit.layout = pl.pl_layout } p

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

let all_shapes = [ Fl.Build.Lines; Fl.Build.Probes; Fl.Build.Ctx ]

let total_counts p =
  let t = ref 0L in
  Ir.Program.iter_funcs (fun f -> t := Int64.add !t (Ir.Func.total_count f)) p;
  !t

(* --- the per-seed fixture --------------------------------------------- *)

(* Two synthetic tenants alternating over the training runs. *)
let tenant i =
  S.Label_set.of_list [ ("tenant", if i land 1 = 0 then "even" else "odd") ]

(* One fleet-road profiling build, its training runs recorded plain and
   under [tenant] labels, and per shape the build serves, [Fl.Build.correlate]
   of the plain log as (tag, canonical text) pairs: the profile, then for
   Ctx its flat baseline. *)
type road = {
  rd_build : Fl.Build.built Lazy.t;
  rd_log : Vm.Sample_log.t Lazy.t;
  rd_labeled : Vm.Sample_log.t Lazy.t;
  rd_serial : (Fl.Build.shape * (string * string) list Lazy.t) list;
}

(* The fleet's "build, record, correlate" road for one seed, each part
   computed on first use: the serial reference the [stream], [format],
   [parcorr] and [labels] families hold their own roads against.
   [Fl.Build.profiling_build] reads the shape only to decide on probes,
   so the Probes and Ctx shapes share one road; a labeled log correlates
   to the same text as its plain copy, so one serial correlation per shape
   serves both (the [fuzz] tests pin both facts). Forced only on the
   seed's own domain, never inside a [Scheduler.map] closure: OCaml 5
   lazies are not domain-safe. *)
type fixture = { fx_plain : road; fx_probed : road }

let fixture ~src w =
  let road_of shapes =
    let b =
      lazy
        (Fl.Build.profiling_build ~options:driver_options ~shape:(List.hd shapes)
           ~source:src)
    in
    let record ?labels () =
      lazy (Fl.Build.record ?labels ~options:driver_options (Lazy.force b) w)
    in
    let log = record () in
    let serial shape =
      lazy
        (let p, flat =
           Fl.Build.correlate ~options:driver_options ~shape (Lazy.force b)
             (Lazy.force log)
         in
         (Fl.Build.shape_name shape, P.Text_io.to_string p)
         :: Option.to_list
              (Option.map
                 (fun f -> ("flat", P.Text_io.to_string (P.Text_io.Probe_prof f)))
                 flat))
    in
    {
      rd_build = b;
      rd_log = log;
      rd_labeled = record ~labels:tenant ();
      rd_serial = List.map (fun shape -> (shape, serial shape)) shapes;
    }
  in
  {
    fx_plain = road_of [ Fl.Build.Lines ];
    fx_probed = road_of [ Fl.Build.Probes; Fl.Build.Ctx ];
  }

(* Everything an oracle family sees of one seed. *)
type env = {
  e_cfg : config;
  e_seed : int64;
  e_src : string;
  e_args : int64 list;
  e_workload : D.workload;  (** [workload_of] the seed's source and args *)
  e_ref : int64;  (** the -O0 reference result *)
  e_fx : fixture;  (** the fleet road's inputs for [e_workload] *)
  e_hooks : D.Plan.hooks option;
  e_cache : O.Cache.t option;
  e_on_overlap : (float -> unit) option;
}

let road e = function
  | Fl.Build.Lines -> e.e_fx.fx_plain
  | Fl.Build.Probes | Fl.Build.Ctx -> e.e_fx.fx_probed

let built e shape = Lazy.force (road e shape).rd_build
let plain_log e shape = Lazy.force (road e shape).rd_log
let labeled_log e shape = Lazy.force (road e shape).rd_labeled
let serial_texts e shape = Lazy.force (List.assoc shape (road e shape).rd_serial)
let serial_text e shape = String.concat "" (List.map snd (serial_texts e shape))

(* Canonical text of a [Fl.Build] correlation, as [serial_text] renders
   it: the profile plus, for the context shape, its flat baseline. *)
let build_text (p, flat) =
  P.Text_io.to_string p
  ^ match flat with Some f -> P.Text_io.to_string (P.Text_io.Probe_prof f) | None -> ""

(* Decode [input] and hold the value to [checks] in order, each a
   predicate and the detail a result mismatch reports when it does not
   hold. A decode error fails as [kind], with [rejected] before the wire
   error. *)
let check_decode site ~kind ~rejected decode input checks =
  match decode input with
  | Error err -> fail kind site "%s%s" rejected (S.Wire.error_to_string err)
  | Ok v ->
      List.iter
        (fun (holds, detail) -> if not (holds v) then fail Result_mismatch site "%s" detail)
        checks

(* The merge laws on real operands, compared as canonical bytes: [merge]
   is commutative, associative (over a distinct third operand [c]), keeps
   the [extra] laws, and has [empty] as its identity. [fail law] reports
   the first law that does not hold. *)
let check_merge_laws ~fail ~bytes ~merge ~empty ?(extra = []) a b c =
  let eq x y = String.equal (bytes x) (bytes y) in
  List.iter
    (fun (law, holds) -> if not (holds ()) then fail law)
    ([
       ("commutative", fun () -> eq (merge a b) (merge b a));
       ("associative", fun () -> eq (merge (merge a b) c) (merge a (merge b c)));
     ]
    @ extra
    @ [ ("identity-on-empty", fun () -> eq (merge a empty) a) ])

type checked = C_pass | C_discard | C_fail of failure_kind * site * string

(* Run one plan against the reference result; raises [Fail] / [Discarded]. *)
let check_plan e pl =
  let site = Plan pl in
  let bin =
    guarded_build site (fun () -> build_plan ?inject:e.e_cfg.cf_inject pl e.e_src)
  in
  let r = guarded_run site (fun () -> run_bin ~fuel:build_fuel bin e.e_args) in
  if not (Int64.equal r e.e_ref) then
    fail Result_mismatch site "reference=%Ld plan=%Ld" e.e_ref r

(* Build one Driver PGO variant. Submitted as a staged plan so the cache
   hooks share stages across variants of a seed — the reference
   symbol/checksum info, the probed profiling run (probe-only and full),
   and the flat probe correlation all compute once. *)
let run_variant e v =
  guarded_build (Variant v) (fun () ->
      D.Plan.run ?hooks:e.e_hooks
        (D.Plan.make ~options:driver_options ~variant:v e.e_workload))

(* Run one Driver PGO variant against the reference result. *)
let check_variant e v =
  let site = Variant v in
  let o = run_variant e v in
  let r = guarded_run site (fun () -> run_bin ~fuel:build_fuel o.D.o_binary e.e_args) in
  if not (Int64.equal r e.e_ref) then
    fail Result_mismatch site "reference=%Ld %s=%Ld" e.e_ref (D.variant_name v) r;
  o

(* Driver-vs-fleet differential: every profile the Driver's Correlate
   stage produces (the line profile, the context trie and its flat
   baseline) must equal, as canonical text, the fleet's road: the
   fixture's [Fl.Build.correlate] on the training runs recorded on
   [Fl.Build.profiling_build]. Both roads run the one kernel, so this
   guards what they still duplicate, the Driver's own profiling build and
   recording against the fleet's. AutoFDO and full CSSPGO between them
   produce every sampled shape. *)
let stream_variants = [ (D.Autofdo, Fl.Build.Lines); (D.Csspgo_full, Fl.Build.Ctx) ]

(* The Driver's side: every "correlate" memo value of the variant's plan,
   in the order the plan asks for them, as canonical text. A cache stores
   the context trie's value as the marshaled (text, stats) pair. *)
let driver_texts e v =
  let hooks = Option.value e.e_hooks ~default:D.Plan.default_hooks in
  let kept = ref [] in
  let memo ~kind ~key ~ser ~de f =
    let x = hooks.D.Plan.memo ~kind ~key ~ser ~de f in
    if String.equal kind "correlate" then kept := ser x :: !kept;
    x
  in
  ignore
    (D.Plan.run ~hooks:{ hooks with D.Plan.memo }
       (D.Plan.make ~options:driver_options ~variant:v e.e_workload));
  match (v, List.rev !kept) with
  | D.Csspgo_full, ctx :: flat ->
      let text, (_ : Core.Ctx_reconstruct.stats) = Marshal.from_string ctx 0 in
      text :: flat
  | _, texts -> texts

let check_stream e v =
  let site = Stream v in
  guarded_build site (fun () ->
      let driver = driver_texts e v in
      let fleet = serial_texts e (List.assoc v stream_variants) in
      if List.length driver <> List.length fleet then
        fail Result_mismatch site "profile count differs";
      List.iter2
        (fun d (tag, f) ->
          if not (String.equal d f) then
            fail Result_mismatch site "Driver's %s profile differs from the fleet's" tag)
        driver fleet)

(* The overlap oracle is only meaningful when the profiling run was long
   enough for the PMU to fire a useful number of times.  A program can
   execute hundreds of blocks and still finish in fewer cycles than one
   sampling period, in which case the probe profile is *correctly* empty
   and overlap 0.0 says nothing about correlation quality.  Require both
   enough ground-truth weight and enough expected samples. *)
let quality_min_samples = 20L

(* [truth] is the instrumented build, [cand] the probe-only one. *)
let check_quality e ~(truth : D.outcome) ~(cand : D.outcome) =
  let period =
    Int64.of_int driver_options.D.pmu.Vm.Machine.sample_period
  in
  let expected_samples = Int64.div cand.D.o_profiling_cycles period in
  if
    Int64.compare (total_counts truth.D.o_annotated) quality_min_total >= 0
    && Int64.compare expected_samples quality_min_samples >= 0
  then begin
    let ov =
      Core.Quality.block_overlap ~truth:truth.D.o_annotated cand.D.o_annotated
    in
    (match e.e_on_overlap with Some f -> f ov | None -> ());
    if ov < e.e_cfg.cf_quality_floor then
      fail Quality_low Quality "block overlap %.3f below floor %.2f" ov
        e.e_cfg.cf_quality_floor
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

let check_stale e =
  let drift_seed = drift_seed_of e.e_seed in
  let edits = e.e_cfg.cf_stale_edits in
  let site v = Stale { sl_variant = v; sl_drift_seed = drift_seed; sl_edits = edits } in
  let d =
    guarded_build (site None) (fun () ->
        W.Drift.apply ~seed:drift_seed ~edits e.e_src)
  in
  let new_src = d.W.Drift.dr_source in
  let new_ref =
    let bin =
      guarded_build (site None) (fun () -> build_reference ?cache:e.e_cache new_src)
    in
    guarded_run (site None) (fun () -> run_bin ~fuel bin e.e_args)
  in
  let check v =
    let o =
      guarded_build (site (Some v)) (fun () ->
          D.Plan.run ?hooks:e.e_hooks
            (D.Plan.make_stale ~options:driver_options ~variant:v
               ~stale_source:new_src e.e_workload))
    in
    let r =
      guarded_run (site (Some v)) (fun () ->
          run_bin ~fuel:build_fuel o.D.o_binary e.e_args)
    in
    if not (Int64.equal r new_ref) then
      fail Result_mismatch (site (Some v)) "N+1 reference=%Ld stale %s=%Ld" new_ref
        (D.variant_name v) r;
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
      fail Quality_low (site None) "probe recovery %.4f below dwarf recovery %.4f" pr dr
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

let check_format e =
  let w = e.e_workload in
  List.iter
    (fun (v, shape) ->
      let site = Format ("text-binary round-trip " ^ D.variant_name v) in
      let texts = guarded_build site (fun () -> serial_texts e shape) in
      List.iter
        (fun (tag, text) ->
          (* Tiny fuzz programs can yield empty dumps (e.g. autofdo with no
             surviving samples); empty text has no kind to round-trip. *)
          if String.length (String.trim text) = 0 then ()
          else
          guarded_build site (fun () ->
              let b = P.Binary_io.encode (P.Text_io.of_string text) in
              if not (P.Binary_io.is_binary b) then
                fail Result_mismatch site "%s: encoding not sniffable" tag;
              check_decode site ~kind:Result_mismatch ~rejected:(tag ^ ": decode failed: ")
                P.Binary_io.decode b
                [
                  ( (fun p' -> String.equal (P.Text_io.to_string p') text),
                    tag ^ ": binary round-trip not byte-identical" );
                ]))
        texts)
    stream_variants;
  let site = Format "sample-log round-trip" in
  guarded_build site (fun () ->
      (* The probed build's training runs, recorded into one log. *)
      let log = plain_log e Fl.Build.Probes in
      let txt = Vm.Sample_log.to_text log in
      let same form =
        [
          ( (fun log' -> String.equal (Vm.Sample_log.to_text log') txt),
            form ^ " round-trip not byte-identical" );
        ]
      in
      check_decode site ~kind:Result_mismatch ~rejected:"" Vm.Sample_log.of_text txt
        (same "text");
      check_decode site ~kind:Result_mismatch ~rejected:"" Vm.Sample_log.decode
        (Vm.Sample_log.encode log) (same "binary"));
  let site = Format "incremental-vs-clean rebuild" in
  guarded_build site (fun () ->
      let c = O.Cache.create () in
      let h = O.Orchestrate.hooks c in
      let plan = D.Plan.make ~options:driver_options ~variant:D.Csspgo_full w in
      let cold = D.Plan.run ~hooks:h plan in
      let warm = D.Plan.run ~hooks:h plan in
      if
        not
          (String.equal (bin_projection cold.D.o_binary) (bin_projection warm.D.o_binary))
      then fail Result_mismatch site "warm rebuild differs from cold build";
      let d = W.Drift.apply ~seed:(drift_seed_of e.e_seed) ~edits:1 e.e_src in
      let stale_plan =
        D.Plan.make_stale ~options:driver_options ~variant:D.Csspgo_full
          ~stale_source:d.W.Drift.dr_source w
      in
      let inc = D.Plan.run ~hooks:h stale_plan in
      let clean = D.Plan.run stale_plan in
      if
        not
          (String.equal (bin_projection inc.D.o_binary) (bin_projection clean.D.o_binary))
      then fail Result_mismatch site "incremental rebuild differs from clean rebuild")

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

let version ?(id = 0) ~n source =
  { Fl.Sim.v_id = id; v_source = source; v_weight = 1L; v_instances = n }

let check_fleet e =
  let w = e.e_workload and src = e.e_src in
  let ts (o : Fl.Sim.outcome) = P.Text_io.to_string o.Fl.Sim.fs_profile in
  let site = Fleet "single-vs-sharded identity" in
  guarded_build site (fun () ->
      let single = Fl.Sim.run fleet_config ~workload:w ~versions:[ version ~n:1 src ] in
      let fleet = Fl.Sim.run fleet_config ~workload:w ~versions:[ version ~n:3 src ] in
      if not (String.equal (ts single) (ts fleet)) then
        fail Result_mismatch site
          "3-instance fleet profile differs from single-instance baseline";
      let fleet2 =
        Fl.Sim.run
          { fleet_config with Fl.Sim.f_jobs = 2 }
          ~workload:w
          ~versions:[ version ~n:3 src ]
      in
      if not (String.equal (ts fleet) (ts fleet2)) then
        fail Result_mismatch site "-j 2 drain differs from -j 1");
  let site = Fleet "merge laws" in
  guarded_build site (fun () ->
      let d = W.Drift.apply ~seed:(drift_seed_of e.e_seed) ~edits:2 src in
      let out =
        Fl.Sim.run fleet_config ~workload:w
          ~versions:
            [ version ~id:0 ~n:2 src; version ~id:1 ~n:2 d.W.Drift.dr_source ]
      in
      let p0, p1 =
        match out.Fl.Sim.fs_per_version with
        | [ a; b ] -> (a.Fl.Sim.pv_profile, b.Fl.Sim.pv_profile)
        | _ -> fail Result_mismatch site "expected two versions"
      in
      let laws kind name p0 p1 =
        let weighted l = P.Merge.weighted ~kind l in
        let wtd l = P.Text_io.to_string (weighted l) in
        check_merge_laws ~bytes:P.Text_io.to_string
          ~merge:(fun a b -> weighted [ (1L, a); (1L, b) ])
          ~empty:(P.Merge.empty kind)
          ~extra:
            [
              ( "weight-linear",
                fun () ->
                  String.equal (wtd [ (3L, p0) ]) (wtd [ (1L, p0); (1L, p0); (1L, p0) ]) );
            ]
          ~fail:(fail Result_mismatch site "%s: merge not %s" name)
          (* a distinct third profile for associativity *)
          p0 p1 (weighted [ (2L, p0) ])
      in
      laws P.Text_io.Ctx "ctx" p0 p1;
      let flatten p =
        match p with
        | P.Text_io.Ctx_prof trie -> P.Text_io.Probe_prof (P.Merge.flatten_ctx trie)
        | _ -> fail Result_mismatch site "fleet profile not a ctx trie"
      in
      laws P.Text_io.Probe "flat" (flatten p0) (flatten p1))

(* Parallel-correlation oracle family (Core.Correlate / Fleet.Build):
   correlate one training log twice per profile shape — the fixture's
   serial run over the whole log, and sharded over its chunk-split form at
   several job counts — and demand byte-identical canonical text (trie
   plus flat baseline for Ctx). A tiny chunk size / shard target forces
   multiple shards even on the fuzzer's short logs, so the exactness of
   every per-shard reduction (counter addition, edge-set union,
   equal-weight Merge) is actually exercised, not vacuously
   single-sharded. *)

let parcorr_chunk = 16

let check_parcorr e =
  List.iter
    (fun shape ->
      let site = Parcorr (Fl.Build.shape_name shape) in
      guarded_build site (fun () ->
          let b = built e shape in
          let log = plain_log e shape in
          let serial = serial_text e shape in
          let chunks = Vm.Sample_log.split ~chunk:parcorr_chunk log in
          List.iter
            (fun jobs ->
              let par =
                build_text
                  (Fl.Build.correlate_chunks ~shard_target:parcorr_chunk ~jobs
                     ~options:driver_options ~shape b chunks)
              in
              if not (String.equal serial par) then
                fail Result_mismatch site "-j %d sharded correlation differs from serial"
                  jobs)
            [ 1; 2 ]))
    all_shapes

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

let check_health e =
  let w = e.e_workload in
  let window jobs =
    let metrics = Obs.Metrics.create () in
    let series = Obs.Series.create () in
    let tracker = Obs.Health.create () in
    let (_ : Fl.Sim.outcome) =
      Fl.Sim.run ~obs:metrics ~series ~health:tracker
        { fleet_config with Fl.Sim.f_jobs = jobs }
        ~workload:w ~versions:[ version ~n:2 e.e_src ]
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
          fail Result_mismatch site "-j 2 health report differs from -j 1";
        if not (String.equal (sj s1) (sj s2)) then
          fail Result_mismatch site "-j 2 series differs from -j 1";
        List.iter
          (fun (tag, txt) ->
            match Obs.Json.parse txt with
            | Ok j when String.equal (Obs.Json.to_string j) txt -> ()
            | Ok _ ->
                fail Result_mismatch site "%s: canonical JSON not a print/parse fixed point"
                  tag
            | Error e -> fail Crash site "%s: %s" tag e)
          [ ("report", rj t1); ("series", sj s1) ];
        (s1, s2))
  in
  let site = Health "series merge laws" in
  guarded_build site (fun () ->
      check_merge_laws ~bytes:sj ~merge:Obs.Series.merge ~empty:(Obs.Series.create ())
        ~fail:(fail Result_mismatch site "merge not %s")
        (* a third operand with doubled deltas, so association is not vacuous *)
        s1 s2 (Obs.Series.merge s1 s2));
  let site = Health "openmetrics exposition" in
  guarded_build site (fun () ->
      let metrics = Obs.Metrics.create () in
      let series = Obs.Series.create () in
      let (_ : Fl.Sim.outcome) =
        Fl.Sim.run ~obs:metrics ~series fleet_config ~workload:w
          ~versions:[ version ~n:1 e.e_src ]
      in
      let check tag txt =
        let eof = "# EOF\n" in
        let n = String.length txt and k = String.length eof in
        if n < k || not (String.equal (String.sub txt (n - k) k) eof) then
          fail Result_mismatch site "%s: exposition missing # EOF trailer" tag
      in
      check "snapshot" (Obs.Export.snapshot (Obs.Metrics.snapshot metrics));
      check "series" (Obs.Export.series series))

(* Request-label oracle family (Vm.Sample_log labels / Fleet.Build
   .correlate_labeled / Profile.Labels): take the fixture's training runs
   labeled with two alternating synthetic tenants, then demand
   - slice-then-merge identity: the label-sliced correlation's blend is
     byte-identical to the fixture's serial correlation of the unlabeled
     runs, per profile shape and at -j 1 and -j 2, slice weights equal the
     observed per-label sample counts, and (probe shape, where counts are
     additive with no trim in play) [Profile.Labels.blend] of the slices
     reconstructs the blend;
   - labeled blobs are encode/decode fixed points preserving the counts;
   - label-free logs decode as the single implicit slice;
   - forcing v3 framing on an unlabeled log downgrades losslessly: the
     decoded log re-encodes to the plain v2 bytes. *)

let check_labels e =
  List.iter
    (fun shape ->
      let site = Labels (Fl.Build.shape_name shape) in
      guarded_build site (fun () ->
          let b = built e shape in
          let log = labeled_log e shape in
          let serial = serial_text e shape in
          List.iter
            (fun jobs ->
              let lc =
                Fl.Build.correlate_labeled ~jobs ~options:driver_options ~shape
                  b log
              in
              if
                not
                  (String.equal serial
                     (build_text (lc.Fl.Build.lc_blend, lc.Fl.Build.lc_flat)))
              then
                fail Result_mismatch site
                  "-j %d label-sliced blend differs from unlabeled serial correlation"
                  jobs;
              let weights =
                List.map
                  (fun s ->
                    (s.P.Labels.sl_label, Int64.to_int s.P.Labels.sl_weight))
                  (P.Labels.slices lc.Fl.Build.lc_slices)
              in
              if weights <> Vm.Sample_log.label_counts log then
                fail Result_mismatch site
                  "-j %d slice weights differ from observed label counts" jobs;
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
                    fail Result_mismatch site
                      "Labels.blend of probe slices differs from blend"
              | Fl.Build.Lines | Fl.Build.Ctx -> ())
            [ 1; 2 ]))
    all_shapes;
  let site = Labels "v3 framing" in
  guarded_build site (fun () ->
      let log = labeled_log e Fl.Build.Probes in
      let counts = Vm.Sample_log.label_counts in
      let decode what input checks =
        check_decode site ~kind:Crash ~rejected:(what ^ " blob rejected: ")
          Vm.Sample_log.decode input checks
      in
      let encodes_to blob detail =
        ((fun back -> String.equal (Vm.Sample_log.encode back) blob), detail)
      in
      let blob = Vm.Sample_log.encode log in
      decode "labeled" blob
        [
          ((fun back -> counts back = counts log), "decode does not preserve label counts");
          encodes_to blob "labeled blob not an encode/decode fixed point";
        ];
      let plain = Vm.Sample_log.unlabeled log in
      let pblob = Vm.Sample_log.encode plain in
      decode "unlabeled" pblob
        [
          ( (fun back ->
              match counts back with
              | [] -> Vm.Sample_log.n_samples back = 0
              | [ (ls, n) ] ->
                  S.Label_set.is_empty ls && n = Vm.Sample_log.n_samples back
              | _ -> false),
            "label-free log is not the single implicit slice" );
        ];
      decode "forced-v3 unlabeled"
        (Vm.Sample_log.encode ~frame:`V3 plain)
        [ encodes_to pblob "v3 -> v2 downgrade of an unlabeled log is not lossless" ])

(* --- the family table ------------------------------------------------ *)

type family = {
  fam_name : string;
  fam_owns : site -> bool;
  fam_check : env -> site option -> unit;
}

(* A family that replays whole whatever site failed: minimization only
   needs "same kind". *)
let whole fam_name fam_owns check =
  { fam_name; fam_owns; fam_check = (fun e _ -> check e) }

let families =
  [
    {
      fam_name = "plans";
      fam_owns = (function Plan _ -> true | _ -> false);
      fam_check =
        (fun e -> function
          | Some (Plan pl) -> check_plan e pl
          | _ ->
              let rng = plan_rng e.e_seed in
              for _ = 1 to e.e_cfg.cf_plans_per_seed do
                check_plan e (sample_plan rng)
              done);
    };
    {
      fam_name = "variants";
      fam_owns = (function Variant _ | Quality -> true | _ -> false);
      fam_check =
        (fun e -> function
          | Some (Variant v) -> ignore (check_variant e v)
          | Some Quality ->
              check_quality e ~truth:(run_variant e D.Instr_pgo)
                ~cand:(run_variant e D.Csspgo_probe_only)
          | _ ->
              let outcomes = List.map (fun v -> (v, check_variant e v)) all_variants in
              check_quality e
                ~truth:(List.assq D.Instr_pgo outcomes)
                ~cand:(List.assq D.Csspgo_probe_only outcomes));
    };
    {
      fam_name = "stream";
      fam_owns = (function Stream _ -> true | _ -> false);
      fam_check =
        (fun e -> function
          | Some (Stream v) -> check_stream e v
          | _ -> List.iter (fun (v, _) -> check_stream e v) stream_variants);
    };
    whole "stale" (function Stale _ -> true | _ -> false) check_stale;
    whole "format" (function Format _ -> true | _ -> false) check_format;
    whole "fleet" (function Fleet _ -> true | _ -> false) check_fleet;
    whole "parcorr" (function Parcorr _ -> true | _ -> false) check_parcorr;
    whole "health" (function Health _ -> true | _ -> false) check_health;
    whole "labels" (function Labels _ -> true | _ -> false) check_labels;
  ]

let family_of site = List.find_opt (fun f -> f.fam_owns site) families
let skipped cfg f = List.mem f.fam_name cfg.cf_skip

(* Classify one source. [only] restricts the check to a single failing site
   — the focused replay the minimizer drives; [reducing] makes sources that
   no longer parse uninteresting instead of crash reports. *)
let classify ?(reducing = false) ?only ?on_overlap ?cache (cfg : config) ~seed src =
  let args = args_of_seed seed in
  try
    let ref_result =
      let bin = guarded_build Reference (fun () -> build_reference ?cache src) in
      guarded_run Reference (fun () -> run_bin ~fuel bin args)
    in
    let workload = workload_of ~seed src args in
    let e =
      {
        e_cfg = cfg;
        e_seed = seed;
        e_src = src;
        e_args = args;
        e_workload = workload;
        e_ref = ref_result;
        e_fx = fixture ~src workload;
        e_hooks = Option.map O.Orchestrate.hooks cache;
        e_cache = cache;
        e_on_overlap = on_overlap;
      }
    in
    (match only with
    | Some site -> Option.iter (fun f -> f.fam_check e only) (family_of site)
    | None ->
        List.iter (fun f -> if not (skipped cfg f) then f.fam_check e None) families);
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
  Printf.sprintf "csspgo_tool fuzz --seeds %Ld-%Ld --plans %d --n-funcs %d --size %d%s%s%s%s --out corpus/"
    seed seed cfg.cf_plans_per_seed cfg.cf_n_funcs cfg.cf_size
    (String.concat ""
       (List.filter_map
          (fun f -> if skipped cfg f then Some (" --skip " ^ f.fam_name) else None)
          families))
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

(* Check a single seed; [None] is a pass or a discard (discards and the
   minimum overlap are recorded in [stats]). Minimization runs when the
   config asks for it. With [cache], the -O0 reference and the shareable
   plan stages (reference symbol info, probed profiling run, flat
   correlation) each compute once per seed instead of once per variant. *)
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
  List.iter
    (fun n ->
      if not (List.exists (fun f -> f.fam_name = n) families) then
        invalid_arg ("Campaign.run: no oracle family named " ^ n))
    cfg.cf_skip;
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
  (* Seeds are independent, so a batch runs across domains (inline at
     [jobs = 1], one seed per batch); each seed accumulates into a private
     stats record and the batch merges in seed order, so the statistics
     and the [cf_max_failures] early stop are the same at any [jobs]. A
     batch only overshoots in wasted work, never in reported results. *)
  let batch_size = if jobs <= 1 then 1 else 2 * jobs in
  let s = ref lo in
  while !s <= hi && not (stop ()) do
    let n = min batch_size (hi - !s + 1) in
    let batch = List.init n (fun i -> Int64.of_int (!s + i)) in
    let results =
      Csspgo_sched.Scheduler.map ~jobs
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
