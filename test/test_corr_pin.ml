(* Correlation pinned byte for byte. Each case renders what the sample
   replay kernels produce from one recorded log — the sorted range and
   branch counts ([Ranges]), the sorted tail-call edge set
   ([Missing_frame]), and haas's canonical context text and stats
   (Algorithm 1) — and checks its FNV-1a digest against the value
   recorded from the [Hashtbl]-counted kernels that preceded the shared
   int table. haas runs Algorithm 1 two ways (one stream, and
   [Correlate.run] on shards at -j 2), over tens of thousands of
   distinct (range, stack) keys, most of them counted many times before
   [finish] resolves them.

   The production entry points are pinned the same way: the Driver's
   ["correlate"] memo values (as a cache would serialize them) for the
   three sampled variants at [hooks.jobs] 1 and 2, and the fleet's
   [Build.correlate], [correlate_chunks] and [correlate_labeled] for all
   three shapes, together with the counters each fleet call leaves in the
   registry it is handed. The fleet windows above the kernel are pinned
   whole: a two-version [Sim.run] (each version's profile, its stale
   routing, the merged profile and flat), a two-generation [Train.run]
   (each generation's profile, carry routing and annotated IR) and
   [Tenancy.collect] on the labeled mix. *)
module Ir = Csspgo_ir
module F = Csspgo_frontend
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module M = Vm.Machine
module SL = Vm.Sample_log
module P = Csspgo_profile
module Pg = Csspgo_profgen
module Core = Csspgo_core
module CR = Core.Ctx_reconstruct
module D = Core.Driver
module W = Csspgo_workloads
module Fl = Csspgo_fleet
module Obs = Csspgo_obs
module Fnv = Csspgo_support.Fnv

let hex s = Printf.sprintf "%016Lx" (Fnv.hash_string s)
let pebs = { M.default_pmu with M.sample_period = 1009 }

(* One PEBS run of the workload's first training input into a log. *)
let profile ?(probes = false) ~config (w : D.workload) =
  let p = F.Lower.compile w.D.w_source in
  if probes then Core.Pseudo_probe.insert p;
  let refp = Ir.Program.copy p in
  Opt.Pass.optimize ~config p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let spec = match w.D.w_train with s :: _ -> s | [] -> assert false in
  let log = SL.create () in
  ignore
    (M.run ~pmu:(Some pebs) ~sink:(SL.sink log) ~globals_init:spec.D.rs_globals
       ~args:spec.D.rs_args bin ~entry:w.D.w_entry);
  (refp, bin, log)

let sorted_triples iter x =
  let acc = ref [] in
  iter (fun a b n -> acc := (a, b, n) :: !acc) x;
  List.sort compare !acc

let render_triples ts =
  let b = Buffer.create 4096 in
  List.iter (fun (a, b', n) -> Printf.bprintf b "%d %d %d\n" a b' n) ts;
  Buffer.contents b

let missing_of bin log =
  let mb = Core.Missing_frame.start (Pg.Bindex.create bin) in
  SL.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
      Core.Missing_frame.feed mb ~lbr ~lbr_len);
  Core.Missing_frame.finish mb

(* Without inlining, adranker and adfinder keep tail calls, so their edge
   sets are not empty. *)
let no_inline = { Opt.Config.o2_nopgo with Opt.Config.inline_mode = Opt.Config.Inline_none }

let suite_cases =
  List.map
    (fun (w : D.workload) ->
      ( w.D.w_name,
        fun () ->
          let _, bin, log = profile ~config:no_inline w in
          let agg = Pg.Ranges.create () in
          SL.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
              Pg.Ranges.feed agg ~lbr ~lbr_len);
          let edges =
            List.map
              (fun (f, a, t) -> Printf.sprintf "%Lx %d %Lx\n" f a t)
              (Core.Missing_frame.edges (missing_of bin log))
          in
          [
            ("ranges", render_triples (sorted_triples Pg.Ranges.iter_ranges agg));
            ("branches", render_triples (sorted_triples Pg.Ranges.iter_branches agg));
            ("edges", String.concat "" edges);
          ] ))
    W.Suite.all

let stats_text (s : CR.stats) =
  Printf.sprintf "samples=%d dropped=%d resolved=%d failed=%d" s.CR.st_samples
    s.CR.st_dropped_misaligned s.CR.st_gaps_resolved s.CR.st_gaps_failed

(* Distinct (range, caller stack) pairs Algorithm 1 attributes, counted by
   replaying the stack walk without attributing anything. *)
let distinct_pairs index log =
  let stacks = CR.Stacks.create () and seen = Hashtbl.create 4096 in
  SL.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
      if lbr_len > 0 && stack_len > 0 then begin
        let id = ref CR.Stacks.empty in
        for i = stack_len - 1 downto 1 do
          id := CR.Stacks.push stacks !id stack.(i)
        done;
        Hashtbl.replace seen (lbr.((2 * lbr_len) - 1), stack.(0), !id) ();
        for i = lbr_len - 1 downto 1 do
          let src = lbr.(2 * i) and tgt = lbr.((2 * i) + 1) in
          (match Pg.Bindex.kind_of_addr index src with
          | Pg.Bindex.K_call -> id := CR.Stacks.pop stacks !id
          | Pg.Bindex.K_ret -> id := CR.Stacks.push stacks !id tgt
          | Pg.Bindex.K_tail_call | Pg.Bindex.K_other -> ());
          Hashtbl.replace seen (lbr.((2 * i) - 1), src, !id) ()
        done
      end);
  Hashtbl.length seen

let haas_case =
  ( "haas ctx",
    fun () ->
      let refp, bin, log = profile ~probes:true ~config:Opt.Config.o2_nopgo W.Suite.haas in
      let name_of g =
        Option.map (fun f -> f.Ir.Func.name) (Ir.Program.find_func_by_guid refp g)
      in
      let checksum_of g =
        match Ir.Program.find_func_by_guid refp g with
        | Some f -> f.Ir.Func.checksum
        | None -> 0L
      in
      let missing = Some (missing_of bin log) in
      let index = Pg.Bindex.create bin in
      Alcotest.(check bool) "more than 16,384 distinct pairs" true
        (distinct_pairs index log > 4 * 4096);
      let stream =
        let st = CR.start ~name_of ?missing ~checksum_of index in
        SL.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
            CR.feed st ~lbr ~lbr_len ~stack ~stack_len);
        CR.finish st
      in
      let sharded =
        let r =
          Core.Correlate.run ~jobs:2 ~missing_frames:true ~trim:0L Core.Correlate.Ctx
            (Core.Correlate.target (Core.Correlate.symbols refp) bin)
            (Core.Correlate.Shards (Core.Correlate.plan (SL.split log)))
        in
        (r.Core.Correlate.profile, r.Core.Correlate.stats)
      in
      List.concat_map
        (fun (how, (profile, stats)) ->
          [ (how ^ " text", P.Text_io.to_string profile); (how ^ " stats", stats_text stats) ])
        [ ("stream", (P.Text_io.Ctx_prof (fst stream), snd stream)); ("-j 2", sharded) ] )

(* The seed pipeline's inputs: hhvm's probed -O2 build, every training
   input at a dense period, the untrimmed trie with missing-frame
   inference and its flat probe profile. The digests were recorded while
   the seed's materialized sample-list pipeline still existed beside the
   kernel. Its probe text had this digest. Its context text differed in
   one line only: it named a root first reached through a call path
   ([main] here) by its hex GUID, where the kernel uses the function
   name. *)
let hhvm_pipeline_case =
  ( "hhvm pipeline",
    fun () ->
      let w = W.Suite.hhvm in
      let p = F.Lower.compile w.D.w_source in
      Core.Pseudo_probe.insert p;
      let sy = Core.Correlate.symbols p in
      Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
      let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
      let pmu = Some { M.default_pmu with M.sample_period = 499 } in
      let log = SL.create () in
      List.iter
        (fun (spec : D.run_spec) ->
          ignore
            (M.run ~pmu ~sink:(SL.sink log) ~globals_init:spec.D.rs_globals
               ~args:spec.D.rs_args bin ~entry:w.D.w_entry))
        w.D.w_train;
      let r =
        Core.Correlate.run ~jobs:1 ~missing_frames:true ~trim:0L Core.Correlate.Ctx
          (Core.Correlate.target sy bin) (Core.Correlate.Log log)
      in
      let flat = Option.get r.Core.Correlate.flat in
      [
        ("probes", P.Text_io.to_string (P.Text_io.Probe_prof (Lazy.force flat)));
        ("ctx", P.Text_io.to_string r.Core.Correlate.profile);
      ] )

(* --- production entry points ------------------------------------------ *)

(* Profiling builds keep their tail calls, so the missing-frame table is
   not empty and gaps get resolved. *)
let fleet_options = { D.default_options with D.opt_profiling = no_inline }

(* Every "correlate" memo value of one plan, serialized exactly as a cache
   would store it, in the order the plan asks for them. *)
let driver_case variant jobs =
  ( Printf.sprintf "driver %s -j %d" (D.variant_name variant) jobs,
    fun () ->
      let kept = ref [] in
      let memo ~kind ~key:_ ~ser ~de:_ f =
        let v = f () in
        if String.equal kind "correlate" then kept := ser v :: !kept;
        v
      in
      let hooks = { D.Plan.default_hooks with D.Plan.memo; jobs } in
      ignore (D.Plan.run ~hooks (D.Plan.make ~options:fleet_options ~variant W.Suite.adfinder));
      List.mapi (fun i v -> (Printf.sprintf "memo %d" i, v)) (List.rev !kept) )

let driver_cases =
  List.concat_map
    (fun v -> [ driver_case v 1; driver_case v 2 ])
    [ D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full ]

let shapes = [ Fl.Build.Lines; Fl.Build.Probes; Fl.Build.Ctx ]

(* Counters, gauges and histograms a call left in its registry; [sched.*]
   depends on the domain schedule and is left out. *)
let registry_text r =
  let s = Obs.Metrics.snapshot r in
  let keep name = not (String.length name >= 6 && String.sub name 0 6 = "sched.") in
  let b = Buffer.create 1024 in
  List.iter (fun (n, v) -> if keep n then Printf.bprintf b "c %s %d\n" n v) s.Obs.Metrics.s_counters;
  List.iter (fun (n, v) -> if keep n then Printf.bprintf b "g %s %d\n" n v) s.Obs.Metrics.s_gauges;
  List.iter
    (fun (n, h) ->
      if keep n then begin
        Printf.bprintf b "h %s %d %d" n h.Obs.Metrics.h_count h.Obs.Metrics.h_sum;
        List.iter (fun (k, c) -> Printf.bprintf b " %d:%d" k c) h.Obs.Metrics.h_nonzero;
        Buffer.add_char b '\n'
      end)
    s.Obs.Metrics.s_histograms;
  Buffer.contents b

let texts (p, flat) =
  [
    ("profile", P.Text_io.to_string p);
    ( "flat",
      match flat with
      | Some f -> P.Text_io.to_string (P.Text_io.Probe_prof f)
      | None -> "" );
  ]

let prefixed tag = List.map (fun (aspect, s) -> (tag ^ " " ^ aspect, s))

(* [Build.correlate] and [correlate_chunks] on adfinder's training log,
   each call on its own registry. *)
let fleet_case shape =
  ( "fleet " ^ Fl.Build.shape_name shape,
    fun () ->
      let w = W.Suite.adfinder in
      let b = Fl.Build.profiling_build ~options:fleet_options ~shape ~source:w.D.w_source in
      let log = Fl.Build.record ~options:fleet_options b w in
      let obs = Obs.Metrics.create () in
      let serial = Fl.Build.correlate ~obs ~options:fleet_options ~shape b log in
      let chunks jobs =
        let r = Obs.Metrics.create () in
        let out =
          Fl.Build.correlate_chunks ~obs:r ~shard_target:16 ~jobs
            ~options:fleet_options ~shape b (SL.split ~chunk:16 log)
        in
        (out, r)
      in
      let j1, r1 = chunks 1 and j2, _ = chunks 2 in
      prefixed "correlate" (texts serial)
      @ [ ("correlate counters", registry_text obs) ]
      @ prefixed "chunks -j 1" (texts j1)
      @ prefixed "chunks -j 2" (texts j2)
      @ [ ("chunks counters", registry_text r1) ] )

let mix =
  W.Mix.make ~seed:11L ~requests:8
    [
      { W.Mix.t_name = "acme"; t_workload = W.Suite.adfinder; t_weight = 3 };
      { W.Mix.t_name = "zeta"; t_workload = W.Suite.adranker; t_weight = 1 };
    ]

(* [correlate_labeled] on one labeled two-tenant log, at -j 1 and -j 2. *)
let labeled_case shape =
  ( "labeled " ^ Fl.Build.shape_name shape,
    fun () ->
      let w = mix.W.Mix.mx_workload in
      let b = Fl.Build.profiling_build ~options:fleet_options ~shape ~source:w.D.w_source in
      let labels = Array.of_list (List.map snd mix.W.Mix.mx_requests) in
      let log = Fl.Build.record ~labels:(Array.get labels) ~options:fleet_options b w in
      let run jobs =
        let obs = Obs.Metrics.create () in
        let lc = Fl.Build.correlate_labeled ~obs ~jobs ~options:fleet_options ~shape b log in
        ( [
            ("slices", P.Labels.to_string lc.Fl.Build.lc_slices);
            ("blend", P.Text_io.to_string lc.Fl.Build.lc_blend);
            ( "flat",
              match lc.Fl.Build.lc_flat with
              | Some f -> P.Text_io.to_string (P.Text_io.Probe_prof f)
              | None -> "" );
          ],
          obs )
      in
      let j1, r1 = run 1 and j2, _ = run 2 in
      prefixed "-j 1" j1 @ prefixed "-j 2" j2 @ [ ("counters", registry_text r1) ] )

(* --- fleet windows -------------------------------------------------- *)

let report = function
  | Some r -> Core.Stale_match.report_to_string r
  | None -> ""

let adfinder_next =
  (W.Drift.apply ~seed:3L ~edits:2 W.Suite.adfinder.D.w_source).W.Drift.dr_source

(* One two-version [Sim.run] window, adfinder N and a drifted N+1: the
   merged profile and flat, each version's own profile and its routing
   onto N+1, the totals and the registry. *)
let sim_case shape =
  ( "sim " ^ Fl.Build.shape_name shape,
    fun () ->
      let w = W.Suite.adfinder in
      let cfg =
        {
          Fl.Sim.default with
          Fl.Sim.f_batch_requests = 2;
          f_jobs = 2;
          f_shape = shape;
          f_options = fleet_options;
        }
      in
      let version id source weight n =
        { Fl.Sim.v_id = id; v_source = source; v_weight = weight; v_instances = n }
      in
      let obs = Obs.Metrics.create () in
      let out =
        Fl.Sim.run ~obs cfg ~workload:w
          ~versions:[ version 0 w.D.w_source 1L 3; version 1 adfinder_next 3L 2 ]
      in
      texts (out.Fl.Sim.fs_profile, out.Fl.Sim.fs_flat)
      @ List.concat_map
          (fun pv ->
            let tag = Printf.sprintf "v%d" pv.Fl.Sim.pv_id in
            [
              (tag ^ " profile", P.Text_io.to_string pv.Fl.Sim.pv_profile);
              (tag ^ " stale", report pv.Fl.Sim.pv_stale);
            ])
          out.Fl.Sim.fs_per_version
      @ [
          ( "counts",
            Printf.sprintf "%d %d %d %d %d %Ld" out.Fl.Sim.fs_requests
              out.Fl.Sim.fs_sampled out.Fl.Sim.fs_samples out.Fl.Sim.fs_batches
              out.Fl.Sim.fs_bytes out.Fl.Sim.fs_cycles );
          ("counters", registry_text obs);
        ] )

(* A two-generation [Train.run]: each generation's build profile, its
   carry routing, and the quality-oracle IR the carried flat annotates. *)
let train_case shape =
  ( "train " ^ Fl.Build.shape_name shape,
    fun () ->
      let cfg =
        {
          Fl.Train.default with
          Fl.Train.t_generations = 2;
          t_overlap = false;
          t_fleet =
            {
              Fl.Sim.default with
              Fl.Sim.f_batch_requests = 2;
              f_shape = shape;
              f_options = fleet_options;
            };
        }
      in
      List.concat_map
        (fun (g : Fl.Train.generation) ->
          let tag = Printf.sprintf "gen %d" g.Fl.Train.g_id in
          [
            (tag ^ " profile", P.Text_io.to_string g.Fl.Train.g_profile);
            (tag ^ " carry", report g.Fl.Train.g_carry);
            ( tag ^ " annotated",
              Format.asprintf "%a" Ir.Program.pp g.Fl.Train.g_outcome.D.o_annotated );
          ])
        (Fl.Train.run cfg W.Suite.adfinder) )

(* [Tenancy.collect] on the labeled two-tenant mix. *)
let tenancy_case shape =
  ( "tenancy " ^ Fl.Build.shape_name shape,
    fun () ->
      let cfg =
        {
          Fl.Tenancy.default with
          Fl.Tenancy.ty_instances = 3;
          ty_batch_requests = 2;
          ty_jobs = 2;
          ty_shape = shape;
          ty_options = fleet_options;
        }
      in
      let obs = Obs.Metrics.create () in
      let co = Fl.Tenancy.collect ~obs cfg mix in
      let lc = co.Fl.Tenancy.co_labeled in
      [
        ("blend", P.Text_io.to_string lc.Fl.Build.lc_blend);
        ( "flat",
          match lc.Fl.Build.lc_flat with
          | Some f -> P.Text_io.to_string (P.Text_io.Probe_prof f)
          | None -> "" );
        ("slices", P.Labels.to_string lc.Fl.Build.lc_slices);
        ("tenants", P.Labels.to_string co.Fl.Tenancy.co_tenants);
        ( "counts",
          Printf.sprintf "%d %d %d %d %d %Ld" co.Fl.Tenancy.co_requests
            co.Fl.Tenancy.co_sampled co.Fl.Tenancy.co_samples co.Fl.Tenancy.co_batches
            co.Fl.Tenancy.co_bytes co.Fl.Tenancy.co_cycles );
        ("counters", registry_text obs);
      ] )

(* Digests keyed by case and aspect: the kernel cases recorded from the
   Hashtbl-counted kernels, the production entry points from the
   hand-written correlation copies that preceded [Correlate]. The serial
   [correlate] and labeled counter digests were re-recorded when the one
   [obs] registry began taking the shard counters: they gained only the
   [parcorr.shards] and [parcorr.samples] lines. The five ctx counter
   digests ([fleet ctx] correlate and chunks, [labeled ctx], [sim ctx],
   [tenancy ctx]) were re-recorded when a kernel run began counting its
   shards once instead of once per replay: only those two lines changed,
   each halved. The [sim], [train] and [tenancy] digests were recorded
   while [Sim], [Train] and [Tenancy] each still wrote their own request
   partition, serve loop and route-then-merge step. *)
let pinned =
  [
    ("adranker ranges", "22227ac3c6ebe9ee");
    ("adranker branches", "2fe7d17ed0ec2945");
    ("adranker edges", "1ae0fda639503c94");
    ("adretriever ranges", "c6ab1560ba4cf8f2");
    ("adretriever branches", "e21dd483c8a07168");
    ("adretriever edges", "cbf29ce484222325");
    ("adfinder ranges", "234da36dcef5c4d9");
    ("adfinder branches", "3c09610e668657d3");
    ("adfinder edges", "bb3d0b8b4d87f166");
    ("hhvm ranges", "2413b078bf55278a");
    ("hhvm branches", "3c66c1f759900775");
    ("hhvm edges", "cbf29ce484222325");
    ("haas ranges", "b9c1e6a5af78db56");
    ("haas branches", "e0cb7d05d77a9cfe");
    ("haas edges", "cbf29ce484222325");
    ("clangish ranges", "cde6f5e75aa4356a");
    ("clangish branches", "2c6bd5dd9202f671");
    ("clangish edges", "cbf29ce484222325");
    ("haas ctx stream text", "d0f8d4f3be5726b7");
    ("haas ctx stream stats", "fb3893a8aaf57a50");
    ("haas ctx -j 2 text", "d0f8d4f3be5726b7");
    ("haas ctx -j 2 stats", "fb3893a8aaf57a50");
    ("hhvm pipeline probes", "3d96ad922d407b19");
    ("hhvm pipeline ctx", "c1b91ae16c604882");
    ("driver autofdo -j 1 memo 0", "885b9fea7ac78773");
    ("driver autofdo -j 2 memo 0", "885b9fea7ac78773");
    ("driver csspgo-probe-only -j 1 memo 0", "e000c7c137a50f00");
    ("driver csspgo-probe-only -j 2 memo 0", "e000c7c137a50f00");
    ("driver csspgo -j 1 memo 0", "8b9517a47020e42e");
    ("driver csspgo -j 1 memo 1", "e000c7c137a50f00");
    ("driver csspgo -j 2 memo 0", "8b9517a47020e42e");
    ("driver csspgo -j 2 memo 1", "e000c7c137a50f00");
    ("fleet lines correlate profile", "885b9fea7ac78773");
    ("fleet lines correlate flat", "cbf29ce484222325");
    ("fleet lines correlate counters", "44c3468444a7ae26");
    ("fleet lines chunks -j 1 profile", "885b9fea7ac78773");
    ("fleet lines chunks -j 1 flat", "cbf29ce484222325");
    ("fleet lines chunks -j 2 profile", "885b9fea7ac78773");
    ("fleet lines chunks -j 2 flat", "cbf29ce484222325");
    ("fleet lines chunks counters", "a94db2901f9887f6");
    ("fleet probes correlate profile", "e000c7c137a50f00");
    ("fleet probes correlate flat", "cbf29ce484222325");
    ("fleet probes correlate counters", "15ed5fc6c2069eeb");
    ("fleet probes chunks -j 1 profile", "e000c7c137a50f00");
    ("fleet probes chunks -j 1 flat", "cbf29ce484222325");
    ("fleet probes chunks -j 2 profile", "e000c7c137a50f00");
    ("fleet probes chunks -j 2 flat", "cbf29ce484222325");
    ("fleet probes chunks counters", "e46a86ec9a90f3c5");
    ("fleet ctx correlate profile", "930131de02d0373e");
    ("fleet ctx correlate flat", "e000c7c137a50f00");
    ("fleet ctx correlate counters", "a9e92a038f1525eb");
    ("fleet ctx chunks -j 1 profile", "930131de02d0373e");
    ("fleet ctx chunks -j 1 flat", "e000c7c137a50f00");
    ("fleet ctx chunks -j 2 profile", "930131de02d0373e");
    ("fleet ctx chunks -j 2 flat", "e000c7c137a50f00");
    ("fleet ctx chunks counters", "e4da11340f4de911");
    ("labeled lines -j 1 slices", "7f32b6db730a58f9");
    ("labeled lines -j 1 blend", "972bc751263354ae");
    ("labeled lines -j 1 flat", "cbf29ce484222325");
    ("labeled lines -j 2 slices", "7f32b6db730a58f9");
    ("labeled lines -j 2 blend", "972bc751263354ae");
    ("labeled lines -j 2 flat", "cbf29ce484222325");
    ("labeled lines counters", "d5d6a08481d37e9a");
    ("labeled probes -j 1 slices", "7e88a7d2fb6545bb");
    ("labeled probes -j 1 blend", "7fe738e810731375");
    ("labeled probes -j 1 flat", "cbf29ce484222325");
    ("labeled probes -j 2 slices", "7e88a7d2fb6545bb");
    ("labeled probes -j 2 blend", "7fe738e810731375");
    ("labeled probes -j 2 flat", "cbf29ce484222325");
    ("labeled probes counters", "70d8b1eb9a6d4318");
    ("labeled ctx -j 1 slices", "8ec785234d1a4dd8");
    ("labeled ctx -j 1 blend", "708b9d73aba4305d");
    ("labeled ctx -j 1 flat", "7fe738e810731375");
    ("labeled ctx -j 2 slices", "8ec785234d1a4dd8");
    ("labeled ctx -j 2 blend", "708b9d73aba4305d");
    ("labeled ctx -j 2 flat", "7fe738e810731375");
    ("labeled ctx counters", "66ffd222c70f54df");
    ("sim ctx profile", "4dc73093a20b4281");
    ("sim ctx flat", "ae5013c66b638992");
    ("sim ctx v0 profile", "930131de02d0373e");
    ("sim ctx v0 stale", "dced7804127d3822");
    ("sim ctx v1 profile", "3962e7cfd662b31c");
    ("sim ctx v1 stale", "cbf29ce484222325");
    ("sim ctx counts", "884e5123dd945052");
    ("sim ctx counters", "5e6cab45caf7bb2a");
    ("sim lines profile", "be1442ddca0c6da4");
    ("sim lines flat", "cbf29ce484222325");
    ("sim lines v0 profile", "885b9fea7ac78773");
    ("sim lines v0 stale", "35d979f1ac866ede");
    ("sim lines v1 profile", "92397f1a4c0d84d9");
    ("sim lines v1 stale", "cbf29ce484222325");
    ("sim lines counts", "807f5925cfb2d275");
    ("sim lines counters", "7c69b082a9b73fc6");
    ("train ctx gen 0 profile", "930131de02d0373e");
    ("train ctx gen 0 carry", "cbf29ce484222325");
    ("train ctx gen 0 annotated", "179083a6ef5a5c8d");
    ("train ctx gen 1 profile", "fccde8382553859a");
    ("train ctx gen 1 carry", "dced7804127d3822");
    ("train ctx gen 1 annotated", "fcc725105922f772");
    ("train lines gen 0 profile", "885b9fea7ac78773");
    ("train lines gen 0 carry", "cbf29ce484222325");
    ("train lines gen 0 annotated", "18cef524e1b57fb3");
    ("train lines gen 1 profile", "56bced60d60b956a");
    ("train lines gen 1 carry", "e7c494f29529b663");
    ("train lines gen 1 annotated", "552aa23f59443da9");
    ("tenancy lines blend", "972bc751263354ae");
    ("tenancy lines flat", "cbf29ce484222325");
    ("tenancy lines slices", "7f32b6db730a58f9");
    ("tenancy lines tenants", "c3470dc9da001340");
    ("tenancy lines counts", "f4ca3c120a1e0818");
    ("tenancy lines counters", "4cf892f028bd9b4f");
    ("tenancy probes blend", "7fe738e810731375");
    ("tenancy probes flat", "cbf29ce484222325");
    ("tenancy probes slices", "7e88a7d2fb6545bb");
    ("tenancy probes tenants", "7743a047de4875c0");
    ("tenancy probes counts", "d66f6526228b84d0");
    ("tenancy probes counters", "71c8203a162d985d");
    ("tenancy ctx blend", "708b9d73aba4305d");
    ("tenancy ctx flat", "7fe738e810731375");
    ("tenancy ctx slices", "8ec785234d1a4dd8");
    ("tenancy ctx tenants", "6cdacbac360bb727");
    ("tenancy ctx counts", "d66f6526228b84d0");
    ("tenancy ctx counters", "1df672621f8b5680");
  ]

let check_case (name, run) () =
  List.iter
    (fun (aspect, rendering) ->
      let key = name ^ " " ^ aspect in
      let got = hex rendering in
      match List.assoc_opt key pinned with
      | Some want -> Alcotest.(check string) (key ^ " digest") want got
      | None -> Alcotest.failf "no pin for %s (digest %s)" key got)
    (run ())

let suite =
  ( "corr-pin",
    List.map
      (fun ((name, _) as c) -> Alcotest.test_case name `Quick (check_case c))
      (suite_cases @ [ haas_case; hhvm_pipeline_case ] @ driver_cases
      @ List.map fleet_case shapes
      @ List.map labeled_case shapes
      @ List.map sim_case [ Fl.Build.Ctx; Fl.Build.Lines ]
      @ List.map train_case [ Fl.Build.Ctx; Fl.Build.Lines ]
      @ List.map tenancy_case shapes) )
