(** Instruction selection: IR blocks to VMC instruction sequences.

    Spilled virtual registers are reloaded into reserved scratch registers
    before ALU use and stored back after definition — visible, costly
    instructions. Call arguments and returns may address spill slots
    directly ([OSpill]), which the VM charges as a memory access.

    A call immediately followed by a return of its result becomes a tail
    call (tail-call elimination): the frame is replaced, and the caller
    disappears from stack samples (the missing-frame problem of §III.B). *)

type term_prep =
  | TP_ret of Mach.moperand
  | TP_br of Mach.preg  (** condition register, reloaded if spilled *)
  | TP_switch of Mach.moperand
  | TP_jmp
  | TP_done  (** terminator already emitted in the body (tail call) *)

type mblock = {
  mb_label : Csspgo_ir.Types.label;
  mb_insts : (Mach.mop * Csspgo_ir.Dloc.t * int) Csspgo_support.Vec.t;
      (** op, debug location, callsite probe id (0 = not a probed call) *)
  mb_probes : (Csspgo_ir.Instr.probe * Csspgo_ir.Dloc.t * int) list;
      (** probe, its dloc, and the [mb_insts] index it anchors to (the next
          real instruction; equal to length = anchors to the terminator) *)
  mb_term : term_prep;
}

type mfunc = {
  mf_func : Csspgo_ir.Func.t;
  mf_blocks : (Csspgo_ir.Types.label, mblock) Hashtbl.t;
  mf_ra : Regalloc.t;
}

val select : Csspgo_ir.Func.t -> mfunc
