(* Algorithm 1 pinned byte for byte. Each case digests (FNV-1a) the
   canonical ctx text and the stats record of one reconstruction, and
   checks the digests against values recorded from the list-keyed
   reconstruction that preceded interned caller stacks. Every case runs
   three ways: one [start]/[feed]/[finish] stream over the sample log,
   [Correlate.run] over small shards at -j 2, and [naive_reconstruct], an
   independent Algorithm 1 written from the paper's pseudo-code. haas and
   adfinder built without inlining (whose samples cross tail-call gaps)
   are checked against that oracle too. *)
module F = Csspgo_frontend
module Ir = Csspgo_ir
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module P = Csspgo_profile
module Pg = Csspgo_profgen
module Core = Csspgo_core
module CR = Core.Ctx_reconstruct
module SL = Vm.Sample_log
module Fnv = Csspgo_support.Fnv

(* [walk] recurses 15 frames deep and picks its callsite by one bit of
   [bits] per level. With [bits < 16] only the outermost four levels
   differ: the stacks share their innermost eleven frames and differ
   beyond the tenth. *)
let deep_src = {|
fn leaf(x) { let s = 0; let i = 0; while (i < 30) { s = s + x * i; i = i + 1; } return s; }
fn walk(bits, depth) {
  if (depth == 0) { return leaf(bits); }
  if (bits % 2 == 0) { return 1 + walk(bits / 2, depth - 1); }
  return 2 + walk(bits / 2, depth - 1);
}
fn main(n) {
  let t = 0;
  let k = 0;
  while (k < n) {
    t = t + walk(k % 16, 14);
    k = k + 1;
  }
  return t;
}
|}

(* [springboard] tail-calls [worker], so worker's samples miss a frame
   that missing-frame inference must supply. *)
let tail_call_src = {|
fn worker(x) { let s = 0; let i = 0; while (i < 60) { s = s + x * i; i = i + 1; } return s; }
fn springboard(x) { return worker(x + 1); }
fn main(n) {
  let t = 0;
  let k = 0;
  while (k < n) {
    t = t + springboard(k);
    k = k + 1;
  }
  return t;
}
|}

(* Two callers reach the leaves through a tail-calling dispatcher. *)
let skid_src = {|
fn leaf_a(x) { let s = 0; let i = 0; while (i < 40) { s = s + x * i; i = i + 1; } return s; }
fn leaf_b(x) { let s = 0; let i = 0; while (i < 40) { s = s + x + i; i = i + 1; } return s; }
fn dispatch(x, k) {
  if (k == 0) { return leaf_a(x); }
  return leaf_b(x);
}
fn caller_a(x) { return dispatch(x, 0); }
fn caller_b(x) { return dispatch(x, 1); }
fn main(n) {
  let t = 0;
  let r = 0;
  while (t < n) {
    r = r + caller_a(t) + caller_b(t);
    t = t + 1;
  }
  return r;
}
|}

type case = {
  c_name : string;
  c_src : string;
  c_arg : int64;
  c_pmu : Vm.Machine.pmu;
  c_missing : bool;
  c_text : string;  (** pinned digest of the canonical ctx text *)
  c_stats : string;  (** pinned digest of the stats record *)
}

let pmu = { Vm.Machine.default_pmu with Vm.Machine.sample_period = 101 }

let cases =
  [
    {
      c_name = "deep recursion";
      c_src = deep_src;
      c_arg = 64L;
      c_pmu = pmu;
      c_missing = false;
      c_text = "090517d97cacbe6a";
      c_stats = "6b46789e13d5adc4";
    };
    {
      c_name = "tail calls";
      c_src = tail_call_src;
      c_arg = 100L;
      c_pmu = pmu;
      c_missing = true;
      c_text = "01791c028d874f86";
      c_stats = "9e68101b00ba43a0";
    };
    {
      c_name = "PEBS off";
      c_src = skid_src;
      c_arg = 120L;
      c_pmu = { pmu with Vm.Machine.pebs = false; skid_prob = 0.8 };
      c_missing = false;
      c_text = "de291dc2f87d22e8";
      c_stats = "07ddea0966015b28";
    };
  ]

let hex s = Printf.sprintf "%016Lx" (Fnv.hash_string s)

let stats_text (s : CR.stats) =
  Printf.sprintf "samples=%d dropped=%d resolved=%d failed=%d" s.CR.st_samples
    s.CR.st_dropped_misaligned s.CR.st_gaps_resolved s.CR.st_gaps_failed

let digests (profile, stats) = (hex (P.Text_io.to_string profile), hex (stats_text stats))

(* The profiling build keeps the call structure (no inlining), as the
   paper's Algorithm 1 examples do. *)
let setup c =
  let p = F.Lower.compile c.c_src in
  Core.Pseudo_probe.insert p;
  let refp = Ir.Program.copy p in
  Opt.Pass.optimize
    ~config:{ Opt.Config.o2_nopgo with Opt.Config.inline_mode = Opt.Config.Inline_none }
    p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let log = SL.create () in
  ignore
    (Vm.Machine.run ~pmu:(Some c.c_pmu) ~sink:(SL.sink log) bin ~entry:"main"
       ~args:[ c.c_arg ]);
  let name_of g =
    Option.map (fun f -> f.Ir.Func.name) (Ir.Program.find_func_by_guid refp g)
  in
  let checksum_of g =
    match Ir.Program.find_func_by_guid refp g with
    | Some f -> f.Ir.Func.checksum
    | None -> 0L
  in
  let index = Pg.Bindex.create bin in
  let missing =
    if c.c_missing then begin
      let mb = Core.Missing_frame.start index in
      SL.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
          Core.Missing_frame.feed mb ~lbr ~lbr_len);
      Some (Core.Missing_frame.finish mb)
    end
    else None
  in
  (index, log, name_of, checksum_of, missing, Core.Correlate.target (Core.Correlate.symbols refp) bin)

(* --- an independent Algorithm 1 ----------------------------------------- *)

module CP = P.Ctx_profile

(* Algorithm 1 written straight from the paper's pseudo-code, as the
   reference the kernel is checked against. It takes one sample at a
   time and keeps the caller stack as an explicit list of return
   addresses, innermost first. Walking the LBR newest to oldest, undoing
   a call pops the list and undoing a return pushes the returned-from
   frame. Every range rebuilds its whole context from the list, repairs
   each tail-call gap on the way through [Missing_frame.resolve], and
   adds its counts to the trie at once. There is no stack interning, no
   walk cache and no counting of repeated ranges: it shares only the
   binary index, the probe table and the missing-frame table with the
   kernel. *)

(* Probe records anchored within [lo, hi], by binary search over the
   probe table: a probe walk independent of the kernel's per-instruction
   spans. *)
let probes_in_range (b : Cg.Mach.binary) (lo, hi) =
  let probes = b.Cg.Mach.probes in
  let n = Array.length probes in
  (* First index with pr_addr >= lo. *)
  let rec lower l r =
    if l >= r then l
    else
      let m = (l + r) / 2 in
      if probes.(m).Cg.Mach.pr_addr < lo then lower (m + 1) r else lower l m
  in
  let out = ref [] in
  let i = ref (lower 0 n) in
  while !i < n && probes.(!i).Cg.Mach.pr_addr <= hi do
    out := probes.(!i) :: !out;
    incr i
  done;
  List.rev !out

let naive_reconstruct ~name_of ?missing ~checksum_of index log =
  let bin = Pg.Bindex.binary index in
  let trie = CP.create () in
  let name_for g =
    match name_of g with Some n -> n | None -> Format.asprintf "%a" Ir.Guid.pp g
  in
  let samples = ref 0 and dropped = ref 0 and resolved = ref 0 and failed = ref 0 in
  (* The frames that tail calls dropped between a call naming [expected]
     and the function [f] running below it: [Some] the inferred frames
     (none when nothing is missing), [None] when the gap cannot be
     repaired. *)
  let gap expected f =
    match expected with
    | Some e when not (Ir.Guid.equal e f) -> (
        match
          Option.bind missing (fun mf -> Core.Missing_frame.resolve mf ~from_func:e ~to_func:f)
        with
        | Some chain ->
            incr resolved;
            Some
              (List.concat_map
                 (fun addr ->
                   let i = Pg.Bindex.idx_of_addr index addr in
                   if i >= 0 then Pg.Bindex.level_path index i else [])
                 chain)
        | None ->
            incr failed;
            None)
    | _ -> Some []
  in
  (* The outermost-first (function, callsite) path of a caller stack, and
     the callee its innermost call names. A return address that follows
     no call cuts the context there; so does a gap that cannot be
     repaired, above the frame that finds it. *)
  let context frames =
    List.fold_left
      (fun (path, expected) ret ->
        match Pg.Bindex.call_idx_before index ret with
        | -1 -> ([], None)
        | ci -> (
            let here = Pg.Bindex.level_path index ci and next = Pg.Bindex.callee index ci in
            match gap expected (Pg.Bindex.container index ci) with
            | Some inferred -> (path @ inferred @ here, next)
            | None -> (here, next)))
      ([], None) (List.rev frames)
  in
  let node_at path leaf =
    let step (parent, site) (f, s) =
      (Some (CP.attach trie ~parent ~site f ~name:(name_for f)), s)
    in
    let parent, site = List.fold_left step (None, 0) path in
    let n = CP.attach trie ~parent ~site leaf ~name:(name_for leaf) in
    if Int64.equal n.CP.n_prof.P.Probe_profile.fe_checksum 0L then
      n.CP.n_prof.P.Probe_profile.fe_checksum <- checksum_of leaf;
    n.CP.n_prof
  in
  let attribute lo hi frames =
    if lo > 0 && hi >= lo then begin
      let path, expected = context frames in
      let ctx =
        match Pg.Bindex.func_guid_of_addr index lo with
        | None -> path
        | Some f -> ( match gap expected f with Some inferred -> path @ inferred | None -> [])
      in
      List.iter
        (fun (pr : Cg.Mach.probe_rec) ->
          let chain =
            List.rev_map (fun cs -> (cs.Ir.Dloc.cs_func, cs.Ir.Dloc.cs_probe)) pr.Cg.Mach.pr_chain
          in
          P.Probe_profile.add_probe
            (node_at (ctx @ chain) pr.Cg.Mach.pr_func)
            pr.Cg.Mach.pr_id 1L)
        (probes_in_range bin (lo, hi));
      Pg.Bindex.iter_range index (lo, hi) (fun ii ->
          match (Pg.Bindex.callee index ii, List.rev (Pg.Bindex.level_path index ii)) with
          | Some callee, (owner, _) :: outer when Pg.Bindex.cs_probe index ii > 0 ->
              P.Probe_profile.add_call
                (node_at (ctx @ List.rev outer) owner)
                (Pg.Bindex.cs_probe index ii) callee 1L
          | _ -> ())
    end
  in
  SL.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
      incr samples;
      if lbr_len > 0 && stack_len > 0 then begin
        let func = Pg.Bindex.func_guid_of_addr index in
        match (func stack.(0), func lbr.((2 * lbr_len) - 1)) with
        | Some a, Some c when Ir.Guid.equal a c ->
            let frames = ref (List.init (stack_len - 1) (fun i -> stack.(i + 1))) in
            attribute lbr.((2 * lbr_len) - 1) stack.(0) !frames;
            for i = lbr_len - 1 downto 1 do
              let src = lbr.(2 * i) in
              (match Pg.Bindex.kind_of_addr index src with
              | Pg.Bindex.K_call -> frames := (match !frames with [] -> [] | _ :: outer -> outer)
              | Pg.Bindex.K_ret -> frames := lbr.((2 * i) + 1) :: !frames
              | Pg.Bindex.K_tail_call | Pg.Bindex.K_other -> ());
              attribute lbr.((2 * i) - 1) src !frames
            done
        | _ -> incr dropped
      end);
  ( trie,
    {
      CR.st_samples = !samples;
      st_dropped_misaligned = !dropped;
      st_gaps_resolved = !resolved;
      st_gaps_failed = !failed;
    } )

let check_case c () =
  let index, log, name_of, checksum_of, missing, target = setup c in
  let stream =
    let st = CR.start ~name_of ?missing ~checksum_of index in
    SL.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
        CR.feed st ~lbr ~lbr_len ~stack ~stack_len);
    CR.finish st
  in
  let shards = Core.Correlate.plan ~target:64 (SL.split ~chunk:64 log) in
  Alcotest.(check bool) (c.c_name ^ ": several shards") true (List.length shards > 1);
  let sharded =
    let r =
      Core.Correlate.run ~jobs:2 ~missing_frames:c.c_missing ~trim:0L Core.Correlate.Ctx
        target (Core.Correlate.Shards shards)
    in
    (r.Core.Correlate.profile, r.Core.Correlate.stats)
  in
  let naive =
    let trie, stats = naive_reconstruct ~name_of ?missing ~checksum_of index log in
    (P.Text_io.Ctx_prof trie, stats)
  in
  List.iter
    (fun (how, r) ->
      let text, stats = digests r in
      Alcotest.(check string) (c.c_name ^ " " ^ how ^ ": ctx text digest") c.c_text text;
      Alcotest.(check string) (c.c_name ^ " " ^ how ^ ": stats digest") c.c_stats stats)
    [
      ("stream", (P.Text_io.Ctx_prof (fst stream), snd stream));
      ("-j 2", sharded);
      ("oracle", naive);
    ];
  (* The pins must cover what each case exists for. *)
  let _, (st : CR.stats) = stream in
  match c.c_name with
  | "deep recursion" ->
      let deepest = ref 0 in
      SL.iter log (fun ~lbr:_ ~lbr_len:_ ~stack:_ ~stack_len ->
          deepest := max !deepest stack_len);
      Alcotest.(check bool) "stacks deeper than 10 frames" true (!deepest > 11)
  | "tail calls" ->
      Alcotest.(check bool) "gaps resolved" true (st.CR.st_gaps_resolved > 0)
  | _ -> Alcotest.(check bool) "misaligned drops" true (st.CR.st_dropped_misaligned > 0)

(* A suite workload's probe build under [config], profiled on its first
   training input at period 1009 with missing-frame inference on: the
   kernel and the oracle must agree on the stats and the ctx text.
   Returns the log and the kernel's stats for the case's own checks. *)
let oracle_check ~config (w : Core.Driver.workload) =
  let module D = Core.Driver in
  let p = F.Lower.compile w.D.w_source in
  Core.Pseudo_probe.insert p;
  let refp = Ir.Program.copy p in
  Opt.Pass.optimize ~config p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let spec = List.hd w.D.w_train in
  let log = SL.create () in
  ignore
    (Vm.Machine.run
       ~pmu:(Some { Vm.Machine.default_pmu with Vm.Machine.sample_period = 1009 })
       ~sink:(SL.sink log) ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args bin
       ~entry:w.D.w_entry);
  let name_of g = Option.map (fun f -> f.Ir.Func.name) (Ir.Program.find_func_by_guid refp g) in
  let checksum_of g =
    match Ir.Program.find_func_by_guid refp g with Some f -> f.Ir.Func.checksum | None -> 0L
  in
  let index = Pg.Bindex.create bin in
  let missing =
    let mb = Core.Missing_frame.start index in
    SL.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
        Core.Missing_frame.feed mb ~lbr ~lbr_len);
    Core.Missing_frame.finish mb
  in
  let kernel =
    let st = CR.start ~name_of ~missing ~checksum_of index in
    SL.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
        CR.feed st ~lbr ~lbr_len ~stack ~stack_len);
    CR.finish st
  in
  let naive = naive_reconstruct ~name_of ~missing ~checksum_of index log in
  let text (trie, _) = P.Text_io.to_string (P.Text_io.Ctx_prof trie) in
  Alcotest.(check string) "stats" (stats_text (snd naive)) (stats_text (snd kernel));
  Alcotest.(check string) "ctx text digest" (hex (text naive)) (hex (text kernel));
  (log, snd kernel)

(* haas recurses through a dozen functions. Its probe build (25,976
   samples) makes 415,616 attributions over 91,520 distinct (range, stack)
   keys and 18,854 interned stacks. It has no tail-call edges, so it never
   reaches gap repair. *)
let test_oracle_haas () =
  let log, _ = oracle_check ~config:Opt.Config.o2_nopgo Csspgo_workloads.Suite.haas in
  let deepest = ref 0 in
  SL.iter log (fun ~lbr:_ ~lbr_len:_ ~stack:_ ~stack_len -> deepest := max !deepest stack_len);
  Alcotest.(check bool) "stacks deeper than 10 frames" true (!deepest > 11)

(* adfinder built without inlining keeps its calls in tail position, so
   its samples cross tail-call gaps and the two sides must repair them
   alike. *)
let test_oracle_adfinder () =
  let _, stats =
    oracle_check
      ~config:{ Opt.Config.o2_nopgo with Opt.Config.inline_mode = Opt.Config.Inline_none }
      Csspgo_workloads.Suite.adfinder
  in
  Alcotest.(check bool) "gaps resolved" true (stats.CR.st_gaps_resolved > 0)

(* --- interned caller stacks ---------------------------------------------- *)

module St = CR.Stacks

let push_all t id addrs = List.fold_left (St.push t) id addrs

let test_stacks () =
  let t = St.create () in
  let a = push_all t St.empty [ 10; 20; 30 ] in
  Alcotest.(check (list int)) "innermost first" [ 30; 20; 10 ] (St.frames t a);
  Alcotest.(check int) "re-pushing gives the same id" a (push_all t St.empty [ 10; 20; 30 ]);
  Alcotest.(check int) "pop undoes push" a (St.pop t (St.push t a 40));
  Alcotest.(check int) "pop of the empty stack" St.empty (St.pop t St.empty);
  Alcotest.(check int) "pop to empty" St.empty (St.pop t (St.pop t (St.pop t a)));
  (* Sixteen shared innermost frames above different outermost ones. *)
  let shared = List.init 16 (fun i -> 100 + i) in
  let x = push_all t (St.push t St.empty 1) shared in
  let y = push_all t (St.push t St.empty 2) shared in
  Alcotest.(check bool) "outermost frame tells stacks apart" true (x <> y);
  Alcotest.(check (list int)) "frames of the first" (List.rev shared @ [ 1 ]) (St.frames t x);
  Alcotest.(check (list int)) "frames of the second" (List.rev shared @ [ 2 ]) (St.frames t y)

(* Random push/pop sequences against an int-list model: the id's frames
   are the model's list, and ids and lists correspond one to one. *)
let prop_stacks_model =
  QCheck.Test.make ~name:"interned stacks replay push/pop like an int list" ~count:300
    QCheck.(small_list (option (int_range 1 5)))
    (fun ops ->
      let t = St.create () in
      let id_of = Hashtbl.create 16 and model_of = Hashtbl.create 16 in
      let agrees id model =
        St.frames t id = model
        && (match Hashtbl.find_opt id_of model with
           | Some id' -> id' = id
           | None -> Hashtbl.replace id_of model id; true)
        &&
        match Hashtbl.find_opt model_of id with
        | Some m -> m = model
        | None -> Hashtbl.replace model_of id model; true
      in
      let rec go id model = function
        | [] -> true
        | op :: ops ->
            let id, model =
              match op with
              | Some a -> (St.push t id a, a :: model)
              | None -> (St.pop t id, match model with [] -> [] | _ :: tl -> tl)
            in
            agrees id model && go id model ops
      in
      go St.empty [] ops)

let suite =
  ( "ctx-recon",
    List.map (fun c -> Alcotest.test_case ("pinned: " ^ c.c_name) `Quick (check_case c)) cases
    @ [
        Alcotest.test_case "oracle: haas" `Quick test_oracle_haas;
        Alcotest.test_case "oracle: adfinder without inlining" `Quick test_oracle_adfinder;
        Alcotest.test_case "interned stacks" `Quick test_stacks;
        QCheck_alcotest.to_alcotest prop_stacks_model;
      ] )
