(** The VMC virtual machine code: instruction set, byte sizes, and the
    linked binary image with its metadata sections (symbol table, DWARF-like
    line table, pseudo-probe table).

    The ISA is register-based with [n_phys] physical registers per frame
    plus per-function spill slots. Branch targets are absolute byte
    addresses patched at link time. *)

type preg = int
(** Physical register index, [0, n_phys). *)

val n_phys : int
(** 16: registers 0-11 are allocatable, 12-15 are reserved scratch. *)

val n_alloc : int
val scratch0 : preg

type moperand =
  | OReg of preg
  | OImm of int64
  | OSpill of int  (** direct spill-slot operand; allowed for call/ret/switch *)

type loc =
  | LReg of preg
  | LSpill of int

type mop =
  | MArith of Csspgo_ir.Types.binop * preg * moperand * moperand
  | MCmp of Csspgo_ir.Types.cmpop * preg * moperand * moperand
  | MSelect of preg * preg * moperand * moperand
  | MMov of preg * moperand
  | MLoad of preg * string * moperand        (** from global array *)
  | MStore of string * moperand * moperand
  | MSpill_ld of preg * int                  (** reg := slot *)
  | MSpill_st of int * preg                  (** slot := reg *)
  | MCall of mcall
  | MTail_call of mcall                      (** frame is replaced, no return *)
  | MRet of moperand
  | MJmp of int
  | MJcc of preg * bool * int                (** jump to addr when (reg<>0) = bool *)
  | MSwitch of moperand * (int64 * int) list * int  (** jump table *)
  | MInc of int                              (** instrumentation counter *)
  | MValprof of int * moperand               (** value-profile capture *)
  | MNop

and mcall = {
  m_callee : Csspgo_ir.Guid.t;
  m_callee_name : string;
  m_args : moperand list;
  m_ret : loc option;  (** where the caller receives the result *)
}

val size_of : mop -> int
(** Encoded size in bytes; fixed per opcode (switch grows with its table). *)

(** One emitted instruction with its metadata. *)
type inst = {
  i_addr : int;
  i_size : int;
  mutable i_op : mop;      (** mutable for link-time target patching *)
  i_dloc : Csspgo_ir.Dloc.t;
  i_func : int;            (** index into [funcs] *)
  i_cs_probe : int;        (** callsite probe id for call instructions (0 = none);
                               part of the pseudo-probe metadata section *)
}

type probe_rec = {
  pr_func : Csspgo_ir.Guid.t;  (** function the probe was inserted into *)
  pr_id : int;
  pr_kind : Csspgo_ir.Instr.probe_kind;
  pr_addr : int;               (** anchor: address of the next real instruction *)
  pr_chain : Csspgo_ir.Dloc.callsite list;  (** inline chain, innermost-first *)
}

type bfunc = {
  bf_name : string;
  bf_guid : Csspgo_ir.Guid.t;
  bf_start : int;
  bf_end : int;                  (** exclusive *)
  bf_cold : (int * int) option;  (** cold-section range, exclusive end *)
  bf_param_locs : loc array;
  bf_nslots : int;               (** spill slots to allocate per frame *)
  bf_checksum : int64;           (** pseudo-probe CFG checksum (0 = none) *)
}

type binary = {
  funcs : bfunc array;
  insts : inst array;              (** sorted by address *)
  probes : probe_rec array;        (** sorted by address *)
  n_counters : int;
  globals : (string * int) list;
  text_size : int;  (** bytes from the first instruction to the end of the last range *)
  debug_size : int;       (** encoded line-table bytes *)
  probe_meta_size : int;  (** encoded pseudo-probe section bytes *)
}

val idx_of_addr : binary -> int -> int
(** Index into [insts] of the instruction starting at an address, or -1
    for any other address; a binary search that allocates nothing. *)
