(** Tail duplication: small join blocks are copied into their predecessors,
    removing a jump on each path at the cost of code growth. Another *code
    duplication* hazard for DWARF correlation; probe copies keep their id
    and are summed by probe correlation. *)

val run : Csspgo_ir.Func.t -> bool
