(* Algorithm 1 pinned byte for byte. Each case digests (FNV-1a) the
   canonical ctx text and the stats record of one reconstruction, and
   checks the digests against values recorded from the list-keyed
   reconstruction that preceded interned caller stacks. Every case runs
   two ways: one [start]/[feed]/[finish] stream over the sample log, and
   [Correlate.run] over small shards at -j 2. *)
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
  List.iter
    (fun (how, r) ->
      let text, stats = digests r in
      Alcotest.(check string) (c.c_name ^ " " ^ how ^ ": ctx text digest") c.c_text text;
      Alcotest.(check string) (c.c_name ^ " " ^ how ^ ": stats digest") c.c_stats stats)
    [ ("stream", (P.Text_io.Ctx_prof (fst stream), snd stream)); ("-j 2", sharded) ];
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
        Alcotest.test_case "interned stacks" `Quick test_stacks;
        QCheck_alcotest.to_alcotest prop_stacks_model;
      ] )
