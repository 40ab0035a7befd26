type unop = Neg | Not

type binop =
  | Arith of Csspgo_ir.Types.binop
  | Compare of Csspgo_ir.Types.cmpop
  | Log_and
  | Log_or

type expr = { e : expr_kind; eline : int }

and expr_kind =
  | Int of int64
  | Var of string
  | Binary of binop * expr * expr
  | Unary of unop * expr
  | Call of string * expr list
  | Index of string * expr

type stmt = { s : stmt_kind; sline : int }

and stmt_kind =
  | Let of string * expr
  | Assign of string * expr
  | Store of string * expr * expr
  | If of expr * block * block
  | While of expr * block
  | Switch of expr * (int64 * block) list * block
  | Return of expr
  | Expr of expr
  | Break
  | Continue

and block = stmt list

type fndef = {
  fname : string;
  fparams : string list;
  fbody : block;
  fline : int;
  fmodule : string;
}

type program = {
  pglobals : (string * int) list;
  pfns : fndef list;
}

(* OCaml evaluates constructor and tuple arguments right to left, so every
   child is bound with [let] before its parent is rebuilt, and lists go
   through this in-order map rather than [List.map], whose application
   order is unspecified. *)
let rec map_in_order f = function
  | [] -> []
  | x :: tl ->
      let y = f x in
      y :: map_in_order f tl

let map ?(block = Fun.id) ?(stmt = Fun.id) ?(expr = Fun.id) (b : block) =
  let rec go_expr e =
    let e = expr e in
    match e.e with
    | Int _ | Var _ -> e
    | Binary (op, a, b) ->
        let a = go_expr a in
        let b = go_expr b in
        { e with e = Binary (op, a, b) }
    | Unary (op, a) -> { e with e = Unary (op, go_expr a) }
    | Call (n, args) -> { e with e = Call (n, map_in_order go_expr args) }
    | Index (n, i) -> { e with e = Index (n, go_expr i) }
  and go_stmt st =
    let st = stmt st in
    let s =
      match st.s with
      | Let (n, e) -> Let (n, go_expr e)
      | Assign (n, e) -> Assign (n, go_expr e)
      | Return e -> Return (go_expr e)
      | Expr e -> Expr (go_expr e)
      | Store (n, i, v) ->
          let i = go_expr i in
          Store (n, i, go_expr v)
      | If (c, t, e) ->
          let c = go_expr c in
          let t = go_block t in
          If (c, t, go_block e)
      | While (c, b) ->
          let c = go_expr c in
          While (c, go_block b)
      | Switch (c, cases, d) ->
          let c = go_expr c in
          let cases = map_in_order (fun (v, b) -> (v, go_block b)) cases in
          Switch (c, cases, go_block d)
      | (Break | Continue) as s -> s
    in
    { st with s }
  and go_block b = map_in_order go_stmt (block b) in
  go_block b

let iter ?block ?stmt ?expr b =
  let visit f x =
    f x;
    x
  in
  ignore
    (map ?block:(Option.map visit block) ?stmt:(Option.map visit stmt)
       ?expr:(Option.map visit expr) b)
