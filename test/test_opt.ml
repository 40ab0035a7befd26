(* Optimization passes: semantics preservation and pass-specific behavior. *)
module F = Csspgo_frontend
module Ir = Csspgo_ir
module T = Ir.Types
module I = Ir.Instr
module Opt = Csspgo_opt
module Core = Csspgo_core
open Csspgo_support

let eval ?(args = []) ?(globals = []) (p : Ir.Program.t) =
  let bin = Csspgo_codegen.Emit.emit ~options:Csspgo_codegen.Emit.default_options p in
  (Csspgo_vm.Machine.run ~pmu:None ~globals_init:globals bin ~entry:"main" ~args)
    .Csspgo_vm.Machine.ret_value

let count_instrs (p : Ir.Program.t) pred =
  let n = ref 0 in
  Ir.Program.iter_funcs
    (fun f ->
      Ir.Func.iter_blocks
        (fun b -> Vec.iter (fun (i : I.t) -> if pred i.I.op then incr n) b.Ir.Block.instrs)
        f)
    p

  ;
  !n

let total_blocks (p : Ir.Program.t) =
  let n = ref 0 in
  Ir.Program.iter_funcs (fun f -> n := !n + Ir.Func.n_blocks f) p;
  !n

let test_constfold_folds () =
  let p = F.Lower.compile "fn main() { let a = 2 + 3; let b = a * 4; return b - 1; }" in
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Constfold.run f)) p;
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Dce.run f)) p;
  (* After folding + DCE the function should return a constant. *)
  let f = Ir.Program.func p "main" in
  let has_const_ret =
    Ir.Func.fold_blocks
      (fun acc b -> acc || b.Ir.Block.term = I.Ret (T.Imm 19L))
      false f
  in
  Alcotest.(check bool) "folded to 19" true has_const_ret

let test_constfold_branch () =
  let p = F.Lower.compile "fn main() { if (1 < 2) { return 10; } return 20; }" in
  let config = Opt.Config.o2_nopgo in
  Ir.Program.iter_funcs
    (fun f ->
      ignore (Opt.Constfold.run f);
      ignore (Opt.Simplify.run ~config f))
    p;
  Alcotest.(check int64) "constant branch folded, result right" 10L (eval p);
  (* The false side must be gone. *)
  Alcotest.(check int) "single block" 1 (Ir.Func.n_blocks (Ir.Program.func p "main"))

let test_dce_keeps_side_effects () =
  let p =
    F.Lower.compile "global g[4];\nfn main() { let dead = 1 + 2; g[0] = 7; return g[0]; }"
  in
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Constfold.run f)) p;
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Dce.run f)) p;
  Alcotest.(check int) "store kept" 1 (count_instrs p (function I.Store _ -> true | _ -> false));
  Alcotest.(check int64) "semantics" 7L (eval p)

let test_simplify_removes_unreachable () =
  let p = F.Lower.compile "fn main() { return 1; let x = 2; return x; }" in
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Simplify.run ~config:Opt.Config.o2_nopgo f)) p;
  Alcotest.(check int) "one block" 1 (Ir.Func.n_blocks (Ir.Program.func p "main"));
  Alcotest.(check int64) "result" 1L (eval p)

(* Arms that lower to register-identical blocks (empty body + same return
   operand) -- the realistic tail-merge victims are shared return paths. *)
let two_identical_returns = {|
fn main(a) {
  if (a > 0) {
    return 7;
  } else {
    return 7;
  }
}
|}

let test_tail_merge_merges () =
  let p = F.Lower.compile two_identical_returns in
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Simplify.run ~config:Opt.Config.o2_nopgo f)) p;
  let before = total_blocks p in
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Tail_merge.run f)) p;
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Simplify.run ~config:Opt.Config.o2_nopgo f)) p;
  Alcotest.(check bool) "blocks merged" true (total_blocks p < before);
  Alcotest.(check int64) "semantics" 7L (eval ~args:[ 5L ] p)

let test_tail_merge_blocked_by_probes () =
  (* The paper's central §III.A claim: probes make otherwise identical
     blocks distinguishable, so code merge is structurally blocked. *)
  let p = F.Lower.compile two_identical_returns in
  Core.Pseudo_probe.insert p;
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Simplify.run ~config:Opt.Config.o2_nopgo f)) p;
  let before = total_blocks p in
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Tail_merge.run f)) p;
  Alcotest.(check int) "no merge with probes" before (total_blocks p);
  Alcotest.(check int64) "semantics" 7L (eval ~args:[ 5L ] p)

let licm_src = {|
global arr[16];
fn main(n) {
  let s = 0;
  let i = 0;
  while (i < n) {
    let k = arr[3] * 10;
    s = s + k + i;
    i = i + 1;
  }
  return s;
}
|}

let test_licm_hoists () =
  let p = F.Lower.compile licm_src in
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Simplify.run ~config:Opt.Config.o2_nopgo f)) p;
  let f = Ir.Program.func p "main" in
  let loops_before = Ir.Cfg.natural_loops f in
  let in_loop_loads () =
    match Ir.Cfg.natural_loops f with
    | [] -> 0
    | loop :: _ ->
        Hashtbl.fold
          (fun l () acc ->
            match Ir.Func.find_block f l with
            | Some b ->
                acc
                + Vec.fold_left
                    (fun n (i : I.t) -> match i.I.op with I.Load _ -> n + 1 | _ -> n)
                    0 b.Ir.Block.instrs
            | None -> acc)
          loop.Ir.Cfg.body 0
  in
  Alcotest.(check bool) "has loop" true (loops_before <> []);
  let before = in_loop_loads () in
  ignore (Opt.Licm.run f);
  Ir.Verify.check_exn p;
  Alcotest.(check bool) "load hoisted" true (in_loop_loads () < before);
  let globals = [ ("arr", Array.init 16 (fun i -> Int64.of_int i)) ] in
  (* s = sum over i<4 of (30 + i) = 120 + 6 *)
  Alcotest.(check int64) "semantics" 126L (eval ~args:[ 4L ] ~globals p)

let test_licm_no_hoist_when_stored () =
  let src = {|
global arr[16];
fn main(n) {
  let s = 0;
  let i = 0;
  while (i < n) {
    arr[3] = i;
    s = s + arr[3];
    i = i + 1;
  }
  return s;
}
|} in
  let p = F.Lower.compile src in
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Simplify.run ~config:Opt.Config.o2_nopgo f)) p;
  let f = Ir.Program.func p "main" in
  ignore (Opt.Licm.run f);
  Alcotest.(check int64) "semantics preserved" 6L (eval ~args:[ 4L ] p)

let test_unroll_replicates () =
  let p = F.Lower.compile "fn main(n) { let s = 0; let i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }" in
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Simplify.run ~config:Opt.Config.o2_nopgo f)) p;
  let before = total_blocks p in
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Unroll.run f)) p;
  Ir.Verify.check_exn p;
  Alcotest.(check bool) "blocks duplicated" true (total_blocks p > before);
  (* Correct for every trip count, including 0 and odd. *)
  List.iter
    (fun n ->
      let expected = Int64.of_int (n * (n - 1) / 2) in
      Alcotest.(check int64) (Printf.sprintf "n=%d" n) expected
        (eval ~args:[ Int64.of_int n ] p))
    [ 0; 1; 2; 3; 7; 10 ]

let test_ifcvt_converts_diamond () =
  let src = "fn main(a) { let x = 0; if (a % 2 == 0) { x = a; } else { x = 0 - a; } return x; }" in
  let p = F.Lower.compile src in
  let config = Opt.Config.o2_nopgo in
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Simplify.run ~config f)) p;
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Ifcvt.run ~config f)) p;
  Alcotest.(check bool) "select produced" true
    (count_instrs p (function I.Select _ -> true | _ -> false) > 0);
  Alcotest.(check int64) "even" 4L (eval ~args:[ 4L ] p);
  Alcotest.(check int64) "odd" (-5L) (eval ~args:[ 5L ] p)

let test_ifcvt_blocked_by_counter () =
  (* Traditional instrumentation counters are optimization barriers. *)
  let src = "fn main(a) { let x = 0; if (a % 2 == 0) { x = a; } else { x = 0 - a; } return x; }" in
  let p = F.Lower.compile src in
  let _im = Core.Instrument.instrument p in
  let config = Opt.Config.o2_nopgo in
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Simplify.run ~config f)) p;
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Ifcvt.run ~config f)) p;
  Alcotest.(check int) "no select with counters" 0
    (count_instrs p (function I.Select _ -> true | _ -> false))

let test_inline_at_mechanics () =
  let p =
    F.Lower.compile
      "fn add3(x) { return x + 3; }\nfn main(a) { let r = add3(a); return r * 2; }"
  in
  Ir.Program.iter_funcs (fun f -> ignore (Opt.Simplify.run ~config:Opt.Config.o2_nopgo f)) p;
  let main = Ir.Program.func p "main" in
  (* find the call *)
  let site = ref None in
  Ir.Func.iter_blocks
    (fun b ->
      Vec.iteri
        (fun idx (i : I.t) ->
          match i.I.op with I.Call _ -> site := Some (b.Ir.Block.id, idx) | _ -> ())
        b.Ir.Block.instrs)
    main;
  let block, index = Option.get !site in
  (match Opt.Inline.inline_at p ~caller:main ~block ~index with
  | Some res ->
      Alcotest.(check bool) "block map nonempty" true (res.Opt.Inline.block_map <> [])
  | None -> Alcotest.fail "inline_at failed");
  Ir.Verify.check_exn p;
  Alcotest.(check int64) "semantics" 16L (eval ~args:[ 5L ] p);
  (* no calls remain *)
  Alcotest.(check int) "call gone" 0 (count_instrs p (function I.Call _ -> true | _ -> false))

let test_inline_preserves_inline_chain () =
  let p =
    F.Lower.compile
      "fn add3(x) { return x + 3; }\nfn main(a) { return add3(a) * 2; }"
  in
  Core.Pseudo_probe.insert p;
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  (* add3 should be inlined; its probes must carry an inline chain. *)
  let main = Ir.Program.func p "main" in
  let add3_guid = Ir.Guid.of_name "add3" in
  let found_chained = ref false in
  Ir.Func.iter_blocks
    (fun b ->
      Vec.iter
        (fun (i : I.t) ->
          match i.I.op with
          | I.Probe pr when Ir.Guid.equal pr.I.p_func add3_guid ->
              if i.I.dloc.Ir.Dloc.inlined_at <> [] then found_chained := true
          | _ -> ())
        b.Ir.Block.instrs)
    main;
  Alcotest.(check bool) "inlined probe has chain" true !found_chained

let test_inline_no_direct_recursion () =
  let p =
    F.Lower.compile
      "fn r(x) { if (x <= 0) { return 0; } return 1 + r(x - 1); }\nfn main(a) { return r(a); }"
  in
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  Ir.Verify.check_exn p;
  Alcotest.(check int64) "recursion survives optimization" 5L (eval ~args:[ 5L ] p)

let test_drop_dead_functions () =
  let p =
    F.Lower.compile
      "fn unused(x) { return x; }\nfn tiny(x) { return x + 1; }\nfn main(a) { return tiny(a); }"
  in
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  Alcotest.(check (option bool)) "unused dropped" None
    (Option.map (fun _ -> true) (Ir.Program.find_func p "unused"))

let test_pipeline_verified () =
  (* Full -O2 pipeline on every named workload keeps the IR well-formed. *)
  List.iter
    (fun (w : Core.Driver.workload) ->
      let p = F.Lower.compile w.Core.Driver.w_source in
      Opt.Pass.optimize ~config:{ Opt.Config.o2_nopgo with verify_between_passes = true } p;
      Ir.Verify.check_exn p)
    Csspgo_workloads.Suite.all

let suite =
  ( "opt",
    [
      Alcotest.test_case "constfold folds" `Quick test_constfold_folds;
      Alcotest.test_case "constfold branch" `Quick test_constfold_branch;
      Alcotest.test_case "dce keeps side effects" `Quick test_dce_keeps_side_effects;
      Alcotest.test_case "simplify unreachable" `Quick test_simplify_removes_unreachable;
      Alcotest.test_case "tail merge merges" `Quick test_tail_merge_merges;
      Alcotest.test_case "tail merge blocked by probes" `Quick test_tail_merge_blocked_by_probes;
      Alcotest.test_case "licm hoists" `Quick test_licm_hoists;
      Alcotest.test_case "licm aliasing" `Quick test_licm_no_hoist_when_stored;
      Alcotest.test_case "unroll replicates" `Quick test_unroll_replicates;
      Alcotest.test_case "ifcvt converts" `Quick test_ifcvt_converts_diamond;
      Alcotest.test_case "ifcvt blocked by counters" `Quick test_ifcvt_blocked_by_counter;
      Alcotest.test_case "inline_at mechanics" `Quick test_inline_at_mechanics;
      Alcotest.test_case "inline chain on probes" `Quick test_inline_preserves_inline_chain;
      Alcotest.test_case "no direct recursion inline" `Quick test_inline_no_direct_recursion;
      Alcotest.test_case "drop dead functions" `Quick test_drop_dead_functions;
      Alcotest.test_case "pipeline verified on workloads" `Slow test_pipeline_verified;
    ] )
