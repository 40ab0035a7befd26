(* Lexer, parser, lowering. *)
module F = Csspgo_frontend
module Ir = Csspgo_ir

let run_main ?(args = []) src =
  let p = F.Lower.compile src in
  Ir.Verify.check_exn p;
  let bin = Csspgo_codegen.Emit.emit ~options:Csspgo_codegen.Emit.default_options p in
  (Csspgo_vm.Machine.run ~pmu:None bin ~entry:"main" ~args).Csspgo_vm.Machine.ret_value

let test_lexer_tokens () =
  let toks = F.Lexer.tokenize "fn main() { return 1 + 2; } // comment" in
  let kinds =
    List.map
      (fun t ->
        match t.F.Lexer.tok with
        | F.Lexer.KW k -> "kw:" ^ k
        | F.Lexer.IDENT i -> "id:" ^ i
        | F.Lexer.INT v -> "int:" ^ Int64.to_string v
        | F.Lexer.PUNCT p -> p
        | F.Lexer.EOF -> "eof")
      toks
  in
  Alcotest.(check (list string)) "token stream"
    [ "kw:fn"; "id:main"; "("; ")"; "{"; "kw:return"; "int:1"; "+"; "int:2"; ";"; "}"; "eof" ]
    kinds

let test_lexer_lines () =
  let toks = F.Lexer.tokenize "fn\n\nmain\n() {}" in
  let line_of name =
    List.find_map
      (fun t ->
        match t.F.Lexer.tok with
        | F.Lexer.IDENT i when String.equal i name -> Some t.F.Lexer.tline
        | F.Lexer.KW i when String.equal i name -> Some t.F.Lexer.tline
        | _ -> None)
      toks
  in
  Alcotest.(check (option int)) "fn line" (Some 1) (line_of "fn");
  Alcotest.(check (option int)) "main line" (Some 3) (line_of "main")

let test_lexer_block_comment_lines () =
  let toks = F.Lexer.tokenize "/* a\nb\nc */ x" in
  (match toks with
  | { F.Lexer.tok = F.Lexer.IDENT "x"; tline } :: _ ->
      Alcotest.(check int) "comment advances lines" 3 tline
  | _ -> Alcotest.fail "expected ident");
  Alcotest.check_raises "unterminated comment"
    (F.Lexer.Lex_error ("unterminated block comment", 1)) (fun () ->
      ignore (F.Lexer.tokenize "/* oops"))

let test_parser_precedence () =
  (* 2 + 3 * 4 = 14, (2 + 3) * 4 = 20 *)
  Alcotest.(check int64) "mul binds tighter" 14L (run_main "fn main() { return 2 + 3 * 4; }");
  Alcotest.(check int64) "parens" 20L (run_main "fn main() { return (2 + 3) * 4; }");
  Alcotest.(check int64) "comparison" 1L (run_main "fn main() { return 1 + 1 == 2; }");
  Alcotest.(check int64) "shift" 20L (run_main "fn main() { return 5 << 2; }")

let test_parser_errors () =
  let fails src =
    match F.Parser.parse src with
    | exception F.Parser.Parse_error _ -> true
    | exception F.Lexer.Lex_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing semicolon" true (fails "fn main() { return 1 }");
  Alcotest.(check bool) "unbalanced brace" true (fails "fn main() { return 1;");
  Alcotest.(check bool) "bad toplevel" true (fails "return 1;")

let test_short_circuit () =
  (* RHS must not evaluate when the LHS decides: division by zero returns 0
     in the VM, so use a store side effect to detect evaluation instead. *)
  let src =
    {|
    global cell[4];
    fn touch() { cell[0] = cell[0] + 1; return 1; }
    fn main(a) {
      let x = a > 10 && touch();
      let y = a > 100 || touch();
      return cell[0] * 10 + x + y * 2;
    }
    |}
  in
  (* a=5: && short-circuits (no touch), || evaluates touch -> cell=1, y=1 *)
  Alcotest.(check int64) "short circuit" 12L (run_main ~args:[ 5L ] src)

let test_while_break_continue () =
  let src =
    {|
    fn main(n) {
      let s = 0;
      let i = 0;
      while (i < n) {
        i = i + 1;
        if (i % 2 == 0) { continue; }
        if (i > 7) { break; }
        s = s + i;
      }
      return s;
    }
    |}
  in
  (* odd i <= 7: 1+3+5+7 = 16 *)
  Alcotest.(check int64) "break/continue" 16L (run_main ~args:[ 100L ] src)

let test_switch_semantics () =
  let src =
    {|
    fn classify(x) {
      switch (x) {
        case 0: return 100;
        case 1: return 200;
        case 5: return 500;
        default: return 1;
      }
    }
    fn main(a) {
      return classify(0) + classify(1) + classify(5) + classify(9) + a * 0;
    }
    |}
  in
  Alcotest.(check int64) "switch" 801L (run_main ~args:[ 0L ] src)

let test_negative_and_unary () =
  Alcotest.(check int64) "neg" (-5L) (run_main "fn main() { return -5; }");
  Alcotest.(check int64) "not true" 0L (run_main "fn main() { return !3; }");
  Alcotest.(check int64) "not false" 1L (run_main "fn main() { return !0; }")

let test_relative_lines () =
  (* Debug lines are relative to the fn keyword: adding comments above a
     function must not change its instructions' line offsets. *)
  let lines_of src =
    let p = F.Lower.compile src in
    let f = Ir.Program.func p "main" in
    Ir.Func.fold_blocks
      (fun acc b ->
        Csspgo_support.Vec.fold_left
          (fun acc (i : Ir.Instr.t) ->
            if Ir.Dloc.is_none i.Ir.Instr.dloc then acc
            else i.Ir.Instr.dloc.Ir.Dloc.line :: acc)
          acc b.Ir.Block.instrs)
      [] f
    |> List.sort compare
  in
  let base = "fn main(a) {\n  let x = a + 1;\n  return x * 2;\n}" in
  let shifted = "// c1\n// c2\n// c3\n" ^ base in
  Alcotest.(check (list int)) "comments above are invisible" (lines_of base)
    (lines_of shifted)

let test_module_assignment () =
  let p =
    F.Lower.compile "module alpha;\nfn a1() { return 1; }\nmodule beta;\nfn b1() { return 2; }\nfn main() { return a1() + b1(); }"
  in
  Alcotest.(check string) "alpha" "alpha" (Ir.Program.func p "a1").Ir.Func.modname;
  Alcotest.(check string) "beta" "beta" (Ir.Program.func p "b1").Ir.Func.modname;
  Alcotest.(check string) "main in beta" "beta" (Ir.Program.func p "main").Ir.Func.modname

let test_unknown_variable () =
  Alcotest.(check bool) "unknown var raises" true
    (match F.Lower.compile "fn main() { return nope; }" with
    | exception F.Lower.Lower_error _ -> true
    | _ -> false)

let test_operators_exhaustive () =
  let cases =
    [ ("fn main() { return 7 & 3; }", 3L);
      ("fn main() { return 5 | 2; }", 7L);
      ("fn main() { return 6 ^ 3; }", 5L);
      ("fn main() { return 40 >> 3; }", 5L);
      ("fn main() { return 17 % 5; }", 2L);
      ("fn main() { return 3 < 3; }", 0L);
      ("fn main() { return 3 <= 3; }", 1L);
      ("fn main() { return 4 > 3; }", 1L);
      ("fn main() { return 2 >= 3; }", 0L);
      ("fn main() { return 3 != 3; }", 0L);
      ("fn main() { return -6 / 2; }", -3L) ]
  in
  List.iter (fun (src, expect) -> Alcotest.(check int64) src expect (run_main src)) cases

let test_nested_control_flow () =
  let src = {|
fn main(n) {
  let total = 0;
  let i = 0;
  while (i < n) {
    let j = 0;
    while (j < i) {
      if (j % 2 == 0) {
        switch (j % 3) {
          case 0: total = total + 1;
          case 1: total = total + 10;
          default: total = total + 100;
        }
      }
      j = j + 1;
    }
    i = i + 1;
  }
  return total;
}
|} in
  (* reference computed in OCaml *)
  let expect n =
    let total = ref 0L in
    for i = 0 to n - 1 do
      for j = 0 to i - 1 do
        if j mod 2 = 0 then
          total :=
            Int64.add !total
              (match j mod 3 with 0 -> 1L | 1 -> 10L | _ -> 100L)
      done
    done;
    !total
  in
  List.iter
    (fun n ->
      Alcotest.(check int64) (Printf.sprintf "n=%d" n) (expect n)
        (run_main ~args:[ Int64.of_int n ] src))
    [ 0; 1; 5; 12 ]

let test_empty_return () =
  Alcotest.(check int64) "return; is return 0" 0L (run_main "fn main() { return; }")

let test_args_beyond_params_ignored () =
  Alcotest.(check int64) "extra args ignored" 5L
    (run_main ~args:[ 5L; 6L; 7L ] "fn main(a) { return a; }")

let test_params_default_zero () =
  Alcotest.(check int64) "missing args are zero" 0L
    (run_main ~args:[] "fn main(a, b) { return a + b; }")

(* --- The one walk: [Ast.map] and [Ast.iter] over generated programs ---- *)

let parsed_gen =
  QCheck.make
    ~print:(fun (seed, _) -> Printf.sprintf "Gen.random_source ~seed:%Ld" seed)
    QCheck.Gen.(
      map
        (fun seed ->
          let seed = Int64.of_int seed in
          (seed, F.Parser.parse (Csspgo_workloads.Gen.random_source ~seed ())))
        (int_range 1 100_000))

let map_bodies f (p : F.Ast.program) =
  let fns = List.map (fun (fn : F.Ast.fndef) -> { fn with fbody = f fn.fbody }) p.pfns in
  { p with pfns = fns }

let prop_map_identity =
  QCheck.Test.make ~name:"Ast.map without callbacks prints its input" ~count:100
    parsed_gen (fun (_, p) ->
      String.equal (F.Pretty.program p) (F.Pretty.program (map_bodies F.Ast.map p)))

(* Each visit tagged with its node: a block by its length, a statement and
   an expression by their line and a structural hash. *)
let tag_block (b : F.Ast.block) = Printf.sprintf "b%d" (List.length b)
let tag_stmt (st : F.Ast.stmt) = Printf.sprintf "s%d:%x" st.sline (Hashtbl.hash st.s)
let tag_expr (e : F.Ast.expr) = Printf.sprintf "e%d:%x" e.eline (Hashtbl.hash e.e)

let visits walk (p : F.Ast.program) =
  let acc = ref [] in
  let log tag x = acc := tag x :: !acc in
  List.iter
    (fun (fn : F.Ast.fndef) -> walk (log tag_block) (log tag_stmt) (log tag_expr) fn.fbody)
    p.pfns;
  List.rev !acc

let prop_iter_is_map =
  QCheck.Test.make ~name:"Ast.iter and Ast.map visit the same nodes" ~count:100 parsed_gen
    (fun (_, p) ->
      let by_iter = visits (fun block stmt expr b -> F.Ast.iter ~block ~stmt ~expr b) p in
      let seen f x =
        f x;
        x
      in
      let by_map =
        visits
          (fun block stmt expr b ->
            ignore (F.Ast.map ~block:(seen block) ~stmt:(seen stmt) ~expr:(seen expr) b))
          p
      in
      by_iter <> [] && by_iter = by_map)

(* Generated sources put every statement on its own line and keep each
   expression on its statement's line, so a pre-order, left-to-right walk
   meets statements at strictly rising lines and expressions at rising or
   equal ones. *)
let prop_walk_in_source_order =
  QCheck.Test.make ~name:"Ast.iter walks in source order" ~count:100 parsed_gen
    (fun (_, p) ->
      List.for_all
        (fun (fn : F.Ast.fndef) ->
          let last_stmt = ref 0 and last = ref 0 and ok = ref true in
          F.Ast.iter fn.fbody
            ~stmt:(fun st ->
              ok := !ok && st.sline > !last_stmt && st.sline >= !last;
              last_stmt := st.sline;
              last := st.sline)
            ~expr:(fun e ->
              ok := !ok && e.eline >= !last;
              last := e.eline);
          !ok)
        p.pfns)

let suite =
  ( "frontend",
    [
      Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
      Alcotest.test_case "lexer lines" `Quick test_lexer_lines;
      Alcotest.test_case "lexer block comments" `Quick test_lexer_block_comment_lines;
      Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
      Alcotest.test_case "parser errors" `Quick test_parser_errors;
      Alcotest.test_case "short circuit" `Quick test_short_circuit;
      Alcotest.test_case "while break continue" `Quick test_while_break_continue;
      Alcotest.test_case "switch" `Quick test_switch_semantics;
      Alcotest.test_case "unary ops" `Quick test_negative_and_unary;
      Alcotest.test_case "relative debug lines" `Quick test_relative_lines;
      Alcotest.test_case "module assignment" `Quick test_module_assignment;
      Alcotest.test_case "unknown variable" `Quick test_unknown_variable;
      Alcotest.test_case "operators exhaustive" `Quick test_operators_exhaustive;
      Alcotest.test_case "nested control flow" `Quick test_nested_control_flow;
      Alcotest.test_case "empty return" `Quick test_empty_return;
      Alcotest.test_case "extra args ignored" `Quick test_args_beyond_params_ignored;
      Alcotest.test_case "missing args zero" `Quick test_params_default_zero;
      QCheck_alcotest.to_alcotest prop_map_identity;
      QCheck_alcotest.to_alcotest prop_iter_is_map;
      QCheck_alcotest.to_alcotest prop_walk_in_source_order;
    ] )
