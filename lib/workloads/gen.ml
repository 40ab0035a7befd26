open Csspgo_support

type ctx = {
  rng : Rng.t;
  buf : Buffer.t;
  globals : string array;
  size : int;  (* statement/expression richness knob; 2 = historical default *)
  (* functions callable from the one being generated: (name, arity) *)
  mutable callable : (string * int) list;
  mutable vars : string list;     (* in scope, assignable *)
  mutable ro_vars : string list;  (* readable only (loop induction vars) *)
  mutable fresh : int;
  mutable depth : int;
  mutable calls_left : int;  (* per-function budget: bounds call fan-out *)
  mutable loop_calls_left : int;
      (* tighter budget for calls nested inside loops: the multiplicative
         blow-up of loop nests * call fan-out is what exhausts fuel *)
}

let fresh_var ctx =
  let v = Printf.sprintf "v%d" ctx.fresh in
  ctx.fresh <- ctx.fresh + 1;
  v

let indent n = String.make (2 * n) ' '

let rec gen_expr ctx d =
  let atom () =
    match Rng.int ctx.rng 10 with
    | 0 | 1 | 2 -> string_of_int (Rng.int ctx.rng 1000)
    | 3 | 4 | 5 | 6 ->
        let readable = ctx.vars @ ctx.ro_vars in
        if readable = [] then string_of_int (Rng.int ctx.rng 100)
        else List.nth readable (Rng.int ctx.rng (List.length readable))
    | 7 ->
        let g = Rng.choose ctx.rng ctx.globals in
        Printf.sprintf "%s[%s]" g (gen_expr ctx 0)
    | _ ->
        (* Calls draw from two budgets: a per-function one, and a much
           tighter one for calls nested inside loops/branches. Both bound
           the multiplicative blow-up of random loop nests * call fan-out,
           so most generated programs finish within test fuel; the rest are
           discarded by the out-of-fuel guard of whatever harness runs
           them. *)
        let in_nest = ctx.depth > 0 in
        let allowed =
          ctx.callable <> [] && d > 0 && ctx.calls_left > 0
          && ((not in_nest) || ctx.loop_calls_left > 0)
        in
        if not allowed then string_of_int (Rng.int ctx.rng 100)
        else begin
          ctx.calls_left <- ctx.calls_left - 1;
          if in_nest then ctx.loop_calls_left <- ctx.loop_calls_left - 1;
          let name, arity =
            List.nth ctx.callable (Rng.int ctx.rng (List.length ctx.callable))
          in
          let args = List.init arity (fun _ -> gen_expr ctx (d - 1)) in
          Printf.sprintf "%s(%s)" name (String.concat ", " args)
        end
  in
  if d <= 0 then atom ()
  else
    match Rng.int ctx.rng 15 with
    | 0 -> Printf.sprintf "(%s + %s)" (gen_expr ctx (d - 1)) (gen_expr ctx (d - 1))
    | 1 -> Printf.sprintf "(%s - %s)" (gen_expr ctx (d - 1)) (gen_expr ctx (d - 1))
    | 2 -> Printf.sprintf "(%s * %s)" (gen_expr ctx (d - 1)) (gen_expr ctx (d - 1))
    | 3 -> Printf.sprintf "(%s / %s)" (gen_expr ctx (d - 1)) (gen_expr ctx (d - 1))
    | 4 -> Printf.sprintf "(%s %% %s)" (gen_expr ctx (d - 1)) (gen_expr ctx (d - 1))
    | 5 -> Printf.sprintf "(%s & %s)" (gen_expr ctx (d - 1)) (gen_expr ctx (d - 1))
    | 6 -> Printf.sprintf "(%s | %s)" (gen_expr ctx (d - 1)) (gen_expr ctx (d - 1))
    | 7 -> Printf.sprintf "(%s ^ %s)" (gen_expr ctx (d - 1)) (gen_expr ctx (d - 1))
    | 8 -> Printf.sprintf "(%s >> %s)" (gen_expr ctx (d - 1)) (string_of_int (Rng.int ctx.rng 8))
    | 9 ->
        let cmp = Rng.choose ctx.rng [| "=="; "!="; "<"; "<="; ">"; ">=" |] in
        Printf.sprintf "(%s %s %s)" (gen_expr ctx (d - 1)) cmp (gen_expr ctx (d - 1))
    | 10 -> Printf.sprintf "(%s && %s)" (gen_expr ctx (d - 1)) (gen_expr ctx (d - 1))
    | 11 -> Printf.sprintf "(%s || %s)" (gen_expr ctx (d - 1)) (gen_expr ctx (d - 1))
    | 12 -> Printf.sprintf "(!%s)" (gen_expr ctx (d - 1))
    | 13 -> Printf.sprintf "(-%s)" (gen_expr ctx (d - 1))
    | _ -> atom ()

let rec gen_stmt ctx level =
  let pad = indent level in
  match Rng.int ctx.rng 13 with
  | 0 | 1 | 2 ->
      let v = fresh_var ctx in
      Buffer.add_string ctx.buf
        (Printf.sprintf "%slet %s = %s;\n" pad v (gen_expr ctx 2));
      ctx.vars <- v :: ctx.vars
  | 3 | 4 when ctx.vars <> [] ->
      let v = List.nth ctx.vars (Rng.int ctx.rng (List.length ctx.vars)) in
      Buffer.add_string ctx.buf (Printf.sprintf "%s%s = %s;\n" pad v (gen_expr ctx 2))
  | 5 ->
      let g = Rng.choose ctx.rng ctx.globals in
      Buffer.add_string ctx.buf
        (Printf.sprintf "%s%s[%s] = %s;\n" pad g (gen_expr ctx 1) (gen_expr ctx 2))
  | 6 | 7 when ctx.depth < 3 ->
      ctx.depth <- ctx.depth + 1;
      Buffer.add_string ctx.buf (Printf.sprintf "%sif (%s) {\n" pad (gen_expr ctx 2));
      let saved = ctx.vars in
      gen_block ctx (level + 1);
      ctx.vars <- saved;
      if Rng.bool ctx.rng then begin
        Buffer.add_string ctx.buf (Printf.sprintf "%s} else {\n" pad);
        gen_block ctx (level + 1);
        ctx.vars <- saved
      end;
      Buffer.add_string ctx.buf (Printf.sprintf "%s}\n" pad);
      ctx.depth <- ctx.depth - 1
  | 8 when ctx.depth < 2 ->
      (* Counted loop with a dedicated induction variable. *)
      ctx.depth <- ctx.depth + 1;
      let i = fresh_var ctx in
      let bound = 1 + Rng.int ctx.rng 6 in
      Buffer.add_string ctx.buf (Printf.sprintf "%slet %s = 0;\n" pad i);
      Buffer.add_string ctx.buf (Printf.sprintf "%swhile (%s < %d) {\n" pad i bound);
      (* The induction variable is readable but never assignable inside the
         body — otherwise generated code could reset it and loop forever. *)
      let saved = ctx.vars and saved_ro = ctx.ro_vars in
      ctx.ro_vars <- i :: ctx.ro_vars;
      gen_block ctx (level + 1);
      Buffer.add_string ctx.buf
        (Printf.sprintf "%s%s = %s + 1;\n" (indent (level + 1)) i i);
      ctx.vars <- saved;
      ctx.ro_vars <- saved_ro;
      Buffer.add_string ctx.buf (Printf.sprintf "%s}\n" pad);
      ctx.depth <- ctx.depth - 1
  | 9 when ctx.depth < 2 ->
      ctx.depth <- ctx.depth + 1;
      Buffer.add_string ctx.buf (Printf.sprintf "%sswitch (%s) {\n" pad (gen_expr ctx 1));
      let n_cases = 1 + Rng.int ctx.rng 4 in
      let saved = ctx.vars in
      for k = 0 to n_cases - 1 do
        Buffer.add_string ctx.buf (Printf.sprintf "%scase %d:\n" (indent (level + 1)) k);
        gen_block ctx (level + 2);
        ctx.vars <- saved
      done;
      Buffer.add_string ctx.buf (Printf.sprintf "%sdefault:\n" (indent (level + 1)));
      gen_block ctx (level + 2);
      ctx.vars <- saved;
      Buffer.add_string ctx.buf (Printf.sprintf "%s}\n" pad);
      ctx.depth <- ctx.depth - 1
  | 10 ->
      (* Global-to-global aliasing store: same array on both sides, so the
         load may or may not observe the store depending on index overlap —
         a pattern that punishes passes assuming distinct memory. *)
      let g = Rng.choose ctx.rng ctx.globals in
      Buffer.add_string ctx.buf
        (Printf.sprintf "%s%s[%s] = (%s[%s] + %s);\n" pad g (gen_expr ctx 1) g
           (gen_expr ctx 1) (gen_expr ctx 1))
  | _ ->
      Buffer.add_string ctx.buf (Printf.sprintf "%s%s;\n" pad (gen_expr ctx 2))

and gen_block ctx level =
  let n = 1 + Rng.int ctx.rng (max 1 (ctx.size + 1)) in
  for _ = 1 to n do
    gen_stmt ctx level
  done

let gen_fn ctx name arity =
  let params = List.init arity (fun i -> Printf.sprintf "p%d" i) in
  ctx.vars <- params;
  ctx.ro_vars <- [];
  ctx.fresh <- 0;
  ctx.depth <- 0;
  ctx.calls_left <- 1 + ctx.size;
  ctx.loop_calls_left <- 1;
  Buffer.add_string ctx.buf
    (Printf.sprintf "fn %s(%s) {\n" name (String.concat ", " params));
  gen_block ctx 1;
  Buffer.add_string ctx.buf (Printf.sprintf "  return %s;\n" (gen_expr ctx 2));
  Buffer.add_string ctx.buf "}\n\n"

let random_source ?(n_funcs = 6) ?(size = 2) ~seed () =
  let rng = Rng.create seed in
  let globals = [| "g0"; "g1" |] in
  let ctx =
    { rng; buf = Buffer.create 4096; globals; size = max 0 size; callable = [];
      vars = []; ro_vars = []; fresh = 0; depth = 0; calls_left = 3;
      loop_calls_left = 1 }
  in
  Array.iter
    (fun g ->
      Buffer.add_string ctx.buf
        (Printf.sprintf "global %s[%d];\n" g (16 + Rng.int rng 64)))
    globals;
  Buffer.add_string ctx.buf "\n";
  (* Bottom-up: each function may call the previously generated ones, so the
     call graph is acyclic and every run terminates. *)
  for i = 0 to n_funcs - 1 do
    if Rng.chance rng 0.3 then
      Buffer.add_string ctx.buf (Printf.sprintf "module m%d;\n\n" (Rng.int rng 3));
    let name = Printf.sprintf "f%d" i in
    let arity = 1 + Rng.int rng 2 in
    gen_fn ctx name arity;
    ctx.callable <- (name, arity) :: ctx.callable
  done;
  gen_fn ctx "main" 2;
  Buffer.contents ctx.buf
