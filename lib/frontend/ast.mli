(** Abstract syntax of MiniC, the small imperative language the simulated
    workloads are written in. Every node carries its absolute source line so
    lowering can produce function-relative debug lines (AutoFDO-style line
    offsets). *)

type unop = Neg | Not

type binop =
  | Arith of Csspgo_ir.Types.binop
  | Compare of Csspgo_ir.Types.cmpop
  | Log_and  (** short-circuit *)
  | Log_or   (** short-circuit *)

type expr = { e : expr_kind; eline : int }

and expr_kind =
  | Int of int64
  | Var of string
  | Binary of binop * expr * expr
  | Unary of unop * expr
  | Call of string * expr list
  | Index of string * expr  (** global array read *)

type stmt = { s : stmt_kind; sline : int }

and stmt_kind =
  | Let of string * expr
  | Assign of string * expr
  | Store of string * expr * expr  (** array, index, value *)
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
  fline : int;  (** line of the [fn] keyword; debug lines are relative to it *)
  fmodule : string;
}

type program = {
  pglobals : (string * int) list;
  pfns : fndef list;
}

(** {1 The one walk} *)

val map :
  ?block:(block -> block) ->
  ?stmt:(stmt -> stmt) ->
  ?expr:(expr -> expr) ->
  block ->
  block
(** [map ?block ?stmt ?expr b] rebuilds [b] bottom-up from a pre-order,
    left-to-right walk. Each node is first passed to its callback (the
    identity when absent), and the walk then descends into the children of
    the callback's result: a block's statements in order; a statement's
    expressions, then its blocks in source order ([If]'s condition, then
    and else; [While]'s condition and body; [Switch]'s scrutinee, cases in
    order and default; [Store]'s index before its value); an expression's
    operands and arguments left to right.

    Callbacks run in exactly that order, so two walks that count nodes
    (blocks, call sites) with stateful callbacks number them the same way:
    an enumeration by {!iter} and a rewrite by [map] agree by construction.
    With no callbacks the result is structurally equal to [b]. *)

val iter :
  ?block:(block -> unit) ->
  ?stmt:(stmt -> unit) ->
  ?expr:(expr -> unit) ->
  block ->
  unit
(** [map] with callbacks that only look: the same nodes in the same order. *)
