open Csspgo_support
module Ir = Csspgo_ir
module I = Ir.Instr
module B = Ir.Block

let body_size f (loop : Ir.Cfg.loop) =
  Hashtbl.fold
    (fun l () acc ->
      match Ir.Func.find_block f l with
      | Some b -> acc + Vec.length b.B.instrs
      | None -> acc)
    loop.Ir.Cfg.body 0

(* A loop is worth replicating when it is small and (with a profile) hot. *)
let should_unroll (f : Ir.Func.t) (loop : Ir.Cfg.loop) =
  let n_blocks = Hashtbl.length loop.Ir.Cfg.body in
  let size = body_size f loop in
  if f.Ir.Func.annotated then
    (* Profile-driven budget: a known-hot loop affords a bigger body
       (post-inline loops carry extra blocks from call splitting). *)
    let header = Ir.Func.block f loop.Ir.Cfg.header in
    n_blocks <= 6 && size <= 30
    && Int64.compare header.B.count Config.hot_count >= 0
  else n_blocks <= 3 && size <= 12

let replicate (f : Ir.Func.t) (loop : Ir.Cfg.loop) =
  let header = loop.Ir.Cfg.header in
  let in_loop l = Hashtbl.mem loop.Ir.Cfg.body l in
  let mapping = Hashtbl.create 8 in
  Hashtbl.iter
    (fun l () -> Hashtbl.replace mapping l (Ir.Func.fresh_block f).B.id)
    loop.Ir.Cfg.body;
  let clone_of l = Hashtbl.find mapping l in
  (* Build clone bodies. Within the clone, in-loop targets map to clones,
     except the back edge to the header which returns to the original. *)
  Hashtbl.iter
    (fun l () ->
      let orig = Ir.Func.block f l in
      let clone = Ir.Func.block f (clone_of l) in
      Vec.iter (fun i -> Vec.push clone.B.instrs (I.copy i)) orig.B.instrs;
      let term =
        I.map_term_labels
          (fun t -> if t = header then header else if in_loop t then clone_of t else t)
          orig.B.term
      in
      B.set_term clone term;
      (* Halve the profile between the two copies. *)
      let half = Int64.div orig.B.count 2L in
      clone.B.count <- half;
      orig.B.count <- Int64.sub orig.B.count half;
      clone.B.edge_counts <- Array.map (fun c -> Int64.div c 2L) orig.B.edge_counts;
      Array.iteri
        (fun i c -> orig.B.edge_counts.(i) <- Int64.sub c (Int64.div c 2L))
        orig.B.edge_counts)
    loop.Ir.Cfg.body;
  (* Original back edges now enter the clone of the header. *)
  Hashtbl.iter
    (fun l () ->
      let orig = Ir.Func.block f l in
      orig.B.term <-
        I.map_term_labels (fun t -> if t = header then clone_of header else t) orig.B.term)
    loop.Ir.Cfg.body

let run (f : Ir.Func.t) =
  let loops = Ir.Cfg.natural_loops f in
  (* Innermost-ish heuristic: smaller loops first; skip nested once a loop
     containing them was transformed this round. *)
  let loops =
    List.sort
      (fun a b -> compare (Hashtbl.length a.Ir.Cfg.body) (Hashtbl.length b.Ir.Cfg.body))
      loops
  in
  let touched = Hashtbl.create 8 in
  let changed = ref false in
  List.iter
    (fun (loop : Ir.Cfg.loop) ->
      let overlaps =
        Hashtbl.fold (fun l () acc -> acc || Hashtbl.mem touched l) loop.Ir.Cfg.body false
      in
      if (not overlaps) && should_unroll f loop then begin
        replicate f loop;
        Hashtbl.iter (fun l () -> Hashtbl.replace touched l ()) loop.Ir.Cfg.body;
        changed := true
      end)
    loops;
  !changed
