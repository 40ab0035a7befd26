open Csspgo_support
module Ir = Csspgo_ir
module T = Ir.Types
module I = Ir.Instr

type term_prep =
  | TP_ret of Mach.moperand
  | TP_br of Mach.preg
  | TP_switch of Mach.moperand
  | TP_jmp
  | TP_done

type mblock = {
  mb_label : T.label;
  mb_insts : (Mach.mop * Ir.Dloc.t * int) Vec.t;
  mb_probes : (I.probe * Ir.Dloc.t * int) list;
  mb_term : term_prep;
}

type mfunc = {
  mf_func : Ir.Func.t;
  mf_blocks : (T.label, mblock) Hashtbl.t;
  mf_ra : Regalloc.t;
}

type bctx = {
  ra : Regalloc.t;
  insts : (Mach.mop * Ir.Dloc.t * int) Vec.t;
  mutable probes_rev : (I.probe * Ir.Dloc.t * int) list;
  mutable scratch_next : int;
}

let emit ?(cs = 0) ctx dloc op = Vec.push ctx.insts (op, dloc, cs)

let fresh_scratch ctx =
  let r = Mach.scratch0 + (ctx.scratch_next mod (Mach.n_phys - Mach.scratch0)) in
  ctx.scratch_next <- ctx.scratch_next + 1;
  r

(* Materialize an operand into something ALU ops accept (reg or imm). *)
let use ctx dloc (o : T.operand) : Mach.moperand =
  match o with
  | T.Imm v -> Mach.OImm v
  | T.Reg r -> (
      match ctx.ra.Regalloc.loc_of.(r) with
      | Mach.LReg p -> Mach.OReg p
      | Mach.LSpill s ->
          let sc = fresh_scratch ctx in
          emit ctx dloc (Mach.MSpill_ld (sc, s));
          Mach.OReg sc)

let use_reg ctx dloc (r : T.reg) : Mach.preg =
  match use ctx dloc (T.Reg r) with
  | Mach.OReg p -> p
  | _ -> assert false

(* Loose operand for calls/ret/switch: spill slots allowed directly. *)
let use_loose ctx (o : T.operand) : Mach.moperand =
  match o with
  | T.Imm v -> Mach.OImm v
  | T.Reg r -> (
      match ctx.ra.Regalloc.loc_of.(r) with
      | Mach.LReg p -> Mach.OReg p
      | Mach.LSpill s -> Mach.OSpill s)

(* Where a definition goes; returns the working preg and a post-store. *)
let def ctx (r : T.reg) : Mach.preg * (Ir.Dloc.t -> unit) =
  match ctx.ra.Regalloc.loc_of.(r) with
  | Mach.LReg p -> (p, fun _ -> ())
  | Mach.LSpill s ->
      let sc = fresh_scratch ctx in
      (sc, fun dloc -> emit ctx dloc (Mach.MSpill_st (s, sc)))

let mcall_of ctx c_callee c_args ret =
  let args = List.map (use_loose ctx) c_args in
  {
    Mach.m_callee = Ir.Guid.of_name c_callee;
    m_callee_name = c_callee;
    m_args = args;
    m_ret = ret;
  }

let select_instr ctx (i : I.t) =
  ctx.scratch_next <- 0;
  let dloc = i.I.dloc in
  match i.I.op with
  | I.Probe p -> ctx.probes_rev <- (p, dloc, Vec.length ctx.insts) :: ctx.probes_rev
  | I.Bin (op, d, a, b) ->
      let ma = use ctx dloc a in
      let mb = use ctx dloc b in
      let pd, post = def ctx d in
      emit ctx dloc (Mach.MArith (op, pd, ma, mb));
      post dloc
  | I.Cmp (op, d, a, b) ->
      let ma = use ctx dloc a in
      let mb = use ctx dloc b in
      let pd, post = def ctx d in
      emit ctx dloc (Mach.MCmp (op, pd, ma, mb));
      post dloc
  | I.Select (d, c, a, b) ->
      let pc = use_reg ctx dloc c in
      let ma = use ctx dloc a in
      let mb = use ctx dloc b in
      let pd, post = def ctx d in
      emit ctx dloc (Mach.MSelect (pd, pc, ma, mb));
      post dloc
  | I.Mov (d, a) ->
      let ma = use ctx dloc a in
      let pd, post = def ctx d in
      (* Coalescing peephole: coloring often lands source and destination in
         the same physical register. *)
      if ma <> Mach.OReg pd then emit ctx dloc (Mach.MMov (pd, ma));
      post dloc
  | I.Load (d, g, idx) ->
      let mi = use ctx dloc idx in
      let pd, post = def ctx d in
      emit ctx dloc (Mach.MLoad (pd, g, mi));
      post dloc
  | I.Store (g, idx, v) ->
      let mi = use ctx dloc idx in
      let mv = use ctx dloc v in
      emit ctx dloc (Mach.MStore (g, mi, mv))
  | I.Call { c_ret; c_callee; c_args; c_probe } ->
      let ret = Option.map (fun r -> ctx.ra.Regalloc.loc_of.(r)) c_ret in
      emit ~cs:c_probe ctx dloc (Mach.MCall (mcall_of ctx c_callee c_args ret))
  | I.Counter_inc c -> emit ctx dloc (Mach.MInc c)
  | I.Val_prof (site, r) ->
      let o = use_loose ctx (T.Reg r) in
      emit ctx dloc (Mach.MValprof (site, o))

let select (f : Ir.Func.t) =
  let ra = Regalloc.allocate f in
  let blocks = Hashtbl.create 16 in
  Ir.Func.iter_blocks
    (fun b ->
      let ctx = { ra; insts = Vec.create (); probes_rev = []; scratch_next = 0 } in
      let n = Vec.length b.Ir.Block.instrs in
      (* Tail-call pattern: the block returns the result of its last call. *)
      let tce_idx =
        if n > 0 then
          match (b.Ir.Block.term, (Vec.get b.Ir.Block.instrs (n - 1)).I.op) with
          | I.Ret (T.Reg rv), I.Call { c_ret = Some d; _ } when rv = d -> Some (n - 1)
          | _ -> None
        else None
      in
      let term_done = ref false in
      Vec.iteri
        (fun idx (i : I.t) ->
          if Some idx = tce_idx then begin
            match i.I.op with
            | I.Call { c_callee; c_args; c_probe; _ } ->
                ctx.scratch_next <- 0;
                emit ~cs:c_probe ctx i.I.dloc
                  (Mach.MTail_call (mcall_of ctx c_callee c_args None));
                term_done := true
            | _ -> assert false
          end
          else select_instr ctx i)
        b.Ir.Block.instrs;
      let term =
        if !term_done then TP_done
        else
          match b.Ir.Block.term with
          | I.Ret v ->
              ctx.scratch_next <- 0;
              TP_ret (use_loose ctx v)
          | I.Jmp _ -> TP_jmp
          | I.Br (c, _, _) ->
              ctx.scratch_next <- 0;
              TP_br (use_reg ctx Ir.Dloc.none c)
          | I.Switch (v, _, _) ->
              ctx.scratch_next <- 0;
              TP_switch (use_loose ctx v)
          | I.Unreachable -> TP_jmp
      in
      Hashtbl.replace blocks b.Ir.Block.id
        {
          mb_label = b.Ir.Block.id;
          mb_insts = ctx.insts;
          mb_probes = List.rev ctx.probes_rev;
          mb_term = term;
        })
    f;
  { mf_func = f; mf_blocks = blocks; mf_ra = ra }
