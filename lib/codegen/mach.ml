module Ir = Csspgo_ir
module T = Ir.Types

type preg = int

let n_phys = 16
let n_alloc = 12
let scratch0 = 12

type moperand =
  | OReg of preg
  | OImm of int64
  | OSpill of int

type loc =
  | LReg of preg
  | LSpill of int

type mop =
  | MArith of T.binop * preg * moperand * moperand
  | MCmp of T.cmpop * preg * moperand * moperand
  | MSelect of preg * preg * moperand * moperand
  | MMov of preg * moperand
  | MLoad of preg * string * moperand
  | MStore of string * moperand * moperand
  | MSpill_ld of preg * int
  | MSpill_st of int * preg
  | MCall of mcall
  | MTail_call of mcall
  | MRet of moperand
  | MJmp of int
  | MJcc of preg * bool * int
  | MSwitch of moperand * (int64 * int) list * int
  | MInc of int
  | MValprof of int * moperand
  | MNop

and mcall = {
  m_callee : Ir.Guid.t;
  m_callee_name : string;
  m_args : moperand list;
  m_ret : loc option;
}

let size_of = function
  | MArith _ -> 3
  | MCmp _ -> 3
  | MSelect _ -> 3
  | MMov _ -> 3
  | MLoad _ | MStore _ -> 4
  | MSpill_ld _ | MSpill_st _ -> 4
  | MCall _ | MTail_call _ -> 5
  | MRet _ -> 1
  | MJmp _ -> 5
  | MJcc _ -> 6
  | MSwitch (_, cases, _) -> 8 + (4 * List.length cases)
  | MInc _ -> 7
  | MValprof _ -> 7
  | MNop -> 1

type inst = {
  i_addr : int;
  i_size : int;
  mutable i_op : mop;
  i_dloc : Ir.Dloc.t;
  i_func : int;
  i_cs_probe : int;
}

type probe_rec = {
  pr_func : Ir.Guid.t;
  pr_id : int;
  pr_kind : Ir.Instr.probe_kind;
  pr_addr : int;
  pr_chain : Ir.Dloc.callsite list;
}

type bfunc = {
  bf_name : string;
  bf_guid : Ir.Guid.t;
  bf_start : int;
  bf_end : int;
  bf_cold : (int * int) option;
  bf_param_locs : loc array;
  bf_nslots : int;
  bf_checksum : int64;
}

type binary = {
  funcs : bfunc array;
  insts : inst array;
  probes : probe_rec array;
  n_counters : int;
  globals : (string * int) list;
  text_size : int;
  debug_size : int;
  probe_meta_size : int;
}

(* Top level, not a local closure: a lookup allocates nothing. *)
let rec search insts addr lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let a = (Array.unsafe_get insts mid).i_addr in
    if addr < a then search insts addr lo mid
    else if addr > a then search insts addr (mid + 1) hi
    else mid

let idx_of_addr b addr = search b.insts addr 0 (Array.length b.insts)
