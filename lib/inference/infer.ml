module Ir = Csspgo_ir
module I = Ir.Instr
module B = Ir.Block

let inf_cap = 1_000_000_000_000L

(* Cost calibration: rewards must beat a few hops of overshoot penalty so
   that short correlation gaps are bridged, but long speculative paths are
   not invented. *)
let block_reward = -10
let block_overshoot = 2
let edge_reward = -5
let edge_overshoot = 1

let infer_func (f : Ir.Func.t) =
  let labels = List.filter (Hashtbl.mem (Ir.Cfg.reachable f)) (Ir.Func.labels f) in
  let idx = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.replace idx l i) labels;
  let n = List.length labels in
  let node_in i = 2 * i and node_out i = (2 * i) + 1 in
  let source = 2 * n and sink = (2 * n) + 1 in
  let g = Mcf.create ~n_nodes:((2 * n) + 2) in
  let block_arcs = Hashtbl.create 16 in
  let edge_arcs = Hashtbl.create 16 in
  List.iter
    (fun l ->
      let b = Ir.Func.block f l in
      let i = Hashtbl.find idx l in
      let measured = Int64.max 0L b.B.count in
      let base =
        if Int64.compare measured 0L > 0 then
          Some (Mcf.add_arc g ~src:(node_in i) ~dst:(node_out i) ~cap:measured ~cost:block_reward)
        else None
      in
      let over =
        Mcf.add_arc g ~src:(node_in i) ~dst:(node_out i) ~cap:inf_cap ~cost:block_overshoot
      in
      Hashtbl.replace block_arcs l (base, over);
      (* Edges to successors. *)
      List.iteri
        (fun e_i s ->
          match Hashtbl.find_opt idx s with
          | None -> ()
          | Some si ->
              let measured_e =
                if e_i < Array.length b.B.edge_counts then Int64.max 0L b.B.edge_counts.(e_i)
                else 0L
              in
              let base_e =
                if Int64.compare measured_e 0L > 0 then
                  Some
                    (Mcf.add_arc g ~src:(node_out i) ~dst:(node_in si) ~cap:measured_e
                       ~cost:edge_reward)
                else None
              in
              let over_e =
                Mcf.add_arc g ~src:(node_out i) ~dst:(node_in si) ~cap:inf_cap
                  ~cost:edge_overshoot
              in
              Hashtbl.replace edge_arcs (l, e_i) (base_e, over_e))
        (B.successors b);
      (* Exits drain to the sink. *)
      match b.B.term with
      | I.Ret _ | I.Unreachable ->
          ignore (Mcf.add_arc g ~src:(node_out i) ~dst:sink ~cap:inf_cap ~cost:0)
      | _ -> ())
    labels;
  (match Hashtbl.find_opt idx f.Ir.Func.entry with
  | Some ei -> ignore (Mcf.add_arc g ~src:source ~dst:(node_in ei) ~cap:inf_cap ~cost:0)
  | None -> ());
  ignore (Mcf.add_arc g ~src:sink ~dst:source ~cap:inf_cap ~cost:0);
  Mcf.solve g;
  (* Write back the inferred, consistent counts. *)
  List.iter
    (fun l ->
      let b = Ir.Func.block f l in
      let base, over = Hashtbl.find block_arcs l in
      let flow =
        Int64.add (match base with Some a -> Mcf.flow a | None -> 0L) (Mcf.flow over)
      in
      b.B.count <- flow;
      let succs = B.successors b in
      if Array.length b.B.edge_counts <> List.length succs then
        b.B.edge_counts <- Array.make (List.length succs) 0L;
      List.iteri
        (fun e_i _ ->
          match Hashtbl.find_opt edge_arcs (l, e_i) with
          | Some (base_e, over_e) ->
              b.B.edge_counts.(e_i) <-
                Int64.add
                  (match base_e with Some a -> Mcf.flow a | None -> 0L)
                  (Mcf.flow over_e)
          | None -> b.B.edge_counts.(e_i) <- 0L)
        succs)
    labels;
  f.Ir.Func.annotated <- true

let consistency_errors (f : Ir.Func.t) =
  let reach = Ir.Cfg.reachable f in
  let inflow = Hashtbl.create 16 in
  Ir.Func.iter_blocks
    (fun b ->
      if Hashtbl.mem reach b.B.id then
        List.iteri
          (fun i s ->
            let w = if i < Array.length b.B.edge_counts then b.B.edge_counts.(i) else 0L in
            Hashtbl.replace inflow s
              (Int64.add w (Option.value (Hashtbl.find_opt inflow s) ~default:0L)))
          (B.successors b))
    f;
  Ir.Func.fold_blocks
    (fun acc b ->
      if not (Hashtbl.mem reach b.B.id) then acc
      else
        let inf = Option.value (Hashtbl.find_opt inflow b.B.id) ~default:0L in
        let outf = Array.fold_left Int64.add 0L b.B.edge_counts in
        let is_entry = b.B.id = f.Ir.Func.entry in
        let is_exit = match b.B.term with I.Ret _ | I.Unreachable -> true | _ -> false in
        let in_ok = is_entry || Int64.equal inf b.B.count in
        let out_ok = is_exit || Int64.equal outf b.B.count in
        if in_ok && out_ok then acc else (b.B.id, inf, b.B.count, outf) :: acc)
    [] f
  |> List.rev
