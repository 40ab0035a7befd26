(** Lowering MiniC AST to IR.

    Debug lines attached to IR instructions are *function-relative* offsets
    (statement line minus the [fn] keyword's line), mirroring AutoFDO's
    line-offset scheme: editing code above a function does not disturb its
    profile, editing inside it does.

    Language notes: variables are function-scoped; [switch] has no
    fall-through; [break]/[continue] apply to the innermost loop. *)

exception Lower_error of string * int  (** message, absolute line *)

val compile : string -> Csspgo_ir.Program.t
(** Parse, then lower the whole program. *)
