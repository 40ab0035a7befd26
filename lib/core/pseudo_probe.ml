open Csspgo_support
module Ir = Csspgo_ir
module I = Ir.Instr

let checksum (f : Ir.Func.t) =
  let h = ref (Fnv.int Fnv.init (Ir.Func.n_blocks f)) in
  Ir.Func.iter_blocks
    (fun b ->
      (* CFG shape only: block identities and edges. Instruction contents and
         debug lines are deliberately excluded, so straight-line source edits
         (including comments) keep the checksum — and the profile — valid;
         any control-flow change invalidates it. *)
      h := Fnv.int !h b.Ir.Block.id;
      List.iter (fun s -> h := Fnv.int !h s) (Ir.Block.successors b))
    f;
  !h

(* Raises [Invalid_argument] if the function already has probes. *)
let insert_func (f : Ir.Func.t) =
  let has_probes =
    Ir.Func.fold_blocks
      (fun acc b -> acc || Vec.exists I.is_probe b.Ir.Block.instrs)
      false f
  in
  if has_probes then invalid_arg ("Pseudo_probe.insert_func: already probed: " ^ f.Ir.Func.name);
  (* Block probes first, in label order, so the entry block is always
     probe #1. *)
  Ir.Func.iter_blocks
    (fun b ->
      let id = Ir.Func.fresh_probe_id f in
      let probe =
        I.mk (I.Probe { I.p_id = id; p_kind = I.Block_probe; p_func = f.Ir.Func.guid })
          (Ir.Block.first_dloc b)
      in
      let shifted = Vec.create () in
      Vec.push shifted probe;
      Vec.iter (Vec.push shifted) b.Ir.Block.instrs;
      Vec.clear b.Ir.Block.instrs;
      Vec.iter (Vec.push b.Ir.Block.instrs) shifted)
    f;
  (* Callsite probes: assign an id to every call. *)
  Ir.Func.iter_blocks
    (fun b ->
      Vec.iter
        (fun (i : I.t) ->
          match i.I.op with
          | I.Call c when c.I.c_probe = 0 ->
              i.I.op <- I.Call { c with I.c_probe = Ir.Func.fresh_probe_id f }
          | _ -> ())
        b.Ir.Block.instrs)
    f;
  f.Ir.Func.checksum <- checksum f

let insert (p : Ir.Program.t) = Ir.Program.iter_funcs insert_func p
