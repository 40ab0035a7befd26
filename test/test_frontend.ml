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
    ] )
