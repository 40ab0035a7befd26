open Csspgo_support
module Ir = Csspgo_ir
module I = Ir.Instr
module B = Ir.Block

(* Candidate: a non-entry block with >= 2 predecessors, a short body, and a
   [Ret] or [Jmp] terminator (no branching tails — keeps the transform
   simple and profitable). *)
let candidate (f : Ir.Func.t) preds (b : B.t) =
  let nb_preds = List.length (Option.value (Hashtbl.find_opt preds b.B.id) ~default:[]) in
  let small_enough =
    if f.Ir.Func.annotated then
      Vec.length b.B.instrs <= 4
      && Int64.compare b.B.count Config.hot_count >= 0
    else Vec.length b.B.instrs <= 2
  in
  b.B.id <> f.Ir.Func.entry
  && nb_preds >= 2
  && small_enough
  && (match b.B.term with I.Ret _ | I.Jmp _ -> true | _ -> false)
  (* Don't duplicate into self (self-loop). *)
  && not (List.mem b.B.id (B.successors b))

let duplicate (f : Ir.Func.t) preds (b : B.t) =
  let ps = Option.value (Hashtbl.find_opt preds b.B.id) ~default:[] in
  let share = if ps = [] then 0L else Int64.div b.B.count (Int64.of_int (List.length ps)) in
  List.iteri
    (fun k p_l ->
      if k > 0 then begin
        (* First predecessor keeps the original block; others get clones. *)
        let p = Ir.Func.block f p_l in
        let clone = Ir.Func.fresh_block f in
        Vec.iter (fun i -> Vec.push clone.B.instrs (I.copy i)) b.B.instrs;
        B.set_term clone b.B.term;
        clone.B.count <- share;
        b.B.count <- Int64.sub b.B.count share;
        clone.B.edge_counts <- Array.map (fun c -> Int64.div c 2L) b.B.edge_counts;
        p.B.term <-
          I.map_term_labels (fun t -> if t = b.B.id then clone.B.id else t) p.B.term
      end)
    ps

let run (f : Ir.Func.t) =
  let preds = Ir.Cfg.preds f in
  let cands =
    Ir.Func.fold_blocks
      (fun acc b -> if candidate f preds b then b :: acc else acc)
      [] f
  in
  List.iter (duplicate f preds) cands;
  cands <> []
