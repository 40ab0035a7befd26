(* Correlation pinned byte for byte. Each case renders what the sample
   replay kernels produce from one recorded log — the sorted range and
   branch counts ([Ranges]), the sorted tail-call edge set
   ([Missing_frame]), and haas's canonical context text and stats
   (Algorithm 1) — and checks its FNV-1a digest against the value
   recorded from the [Hashtbl]-counted kernels that preceded the shared
   int table. haas runs Algorithm 1 three ways (batch, one stream, and
   [Par_corr] at -j 2), and makes far more distinct (range, stack) pairs
   than the attribution memo holds, so both the memoized path and the
   past-cap path are pinned. *)
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
        Hashtbl.replace seen (snd lbr.(lbr_len - 1), stack.(0), !id) ();
        for i = lbr_len - 1 downto 1 do
          let src, tgt = lbr.(i) in
          (match Pg.Bindex.kind_of_addr index src with
          | Pg.Bindex.K_call -> id := CR.Stacks.pop stacks !id
          | Pg.Bindex.K_ret -> id := CR.Stacks.push stacks !id tgt
          | Pg.Bindex.K_tail_call | Pg.Bindex.K_other -> ());
          Hashtbl.replace seen (snd lbr.(i - 1), src, !id) ()
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
      Alcotest.(check bool) "more distinct pairs than the memo holds" true
        (distinct_pairs index log > 4 * 4096);
      let batch = CR.reconstruct ~name_of ?missing ~checksum_of bin (SL.to_samples log) in
      let stream =
        let st = CR.start ~name_of ?missing ~checksum_of index in
        SL.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
            CR.feed st ~lbr ~lbr_len ~stack ~stack_len);
        CR.finish st
      in
      let sharded =
        Core.Par_corr.reconstruct ~name_of ?missing ~checksum_of ~jobs:2 index
          (Core.Par_corr.shards_of_log log)
      in
      List.concat_map
        (fun (how, (trie, stats)) ->
          [
            (how ^ " text", P.Text_io.to_string (P.Text_io.Ctx_prof trie));
            (how ^ " stats", stats_text stats);
          ])
        [ ("batch", batch); ("stream", stream); ("-j 2", sharded) ] )

(* Digests recorded from the Hashtbl-counted kernels, keyed by case and
   aspect. *)
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
    ("haas ctx batch text", "d0f8d4f3be5726b7");
    ("haas ctx batch stats", "fb3893a8aaf57a50");
    ("haas ctx stream text", "d0f8d4f3be5726b7");
    ("haas ctx stream stats", "fb3893a8aaf57a50");
    ("haas ctx -j 2 text", "d0f8d4f3be5726b7");
    ("haas ctx -j 2 stats", "fb3893a8aaf57a50");
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
      (suite_cases @ [ haas_case ]) )
