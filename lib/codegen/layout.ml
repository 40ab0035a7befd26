open Csspgo_support
module Ir = Csspgo_ir

type t = {
  hot : Ir.Types.label list;
  cold : Ir.Types.label list;
}

(* Profile edge weights when annotated, loop-heuristic weights otherwise. *)
let edge_weights (f : Ir.Func.t) =
  if f.Ir.Func.annotated then
    Ir.Func.fold_blocks
      (fun acc b ->
        let succs = Ir.Block.successors b in
        let acc = ref acc in
        List.iteri
          (fun i s ->
            let w =
              if i < Array.length b.Ir.Block.edge_counts then b.Ir.Block.edge_counts.(i)
              else 0L
            in
            acc := (b.Ir.Block.id, s, w) :: !acc)
          succs;
        !acc)
      [] f
  else begin
    (* Static estimate: loop back edges and loop-internal edges are heavy. *)
    let depth = Hashtbl.create 16 in
    List.iter
      (fun (loop : Ir.Cfg.loop) ->
        Hashtbl.iter
          (fun l () ->
            Hashtbl.replace depth l (1 + Option.value (Hashtbl.find_opt depth l) ~default:0))
          loop.Ir.Cfg.body)
      (Ir.Cfg.natural_loops f);
    Ir.Func.fold_blocks
      (fun acc b ->
        let d l = Option.value (Hashtbl.find_opt depth l) ~default:0 in
        let acc = ref acc in
        List.iter
          (fun s ->
            let w = Int64.of_int (1 + (8 * min (d b.Ir.Block.id) (d s))) in
            acc := (b.Ir.Block.id, s, w) :: !acc)
          (Ir.Block.successors b);
        !acc)
      [] f
  end

(* Instruction-count proxy for block byte size. *)
let block_size f l =
  match Ir.Func.find_block f l with
  | Some b -> 1 + Vec.length b.Ir.Block.instrs
  | None -> 1

let order ~split (f : Ir.Func.t) =
  let reach = Ir.Cfg.reachable f in
  let labels = List.filter (Hashtbl.mem reach) (Ir.Func.labels f) in
  let is_cold l =
    split && f.Ir.Func.annotated && l <> f.Ir.Func.entry
    && Int64.equal (Ir.Func.block f l).Ir.Block.count 0L
  in
  let hot_labels = List.filter (fun l -> not (is_cold l)) labels in
  let cold = List.filter is_cold labels in
  (* Hot-path DFS placement: always extend the current chain with the
     hottest unplaced successor, so the dominant path through each loop is
     a pure fallthrough run. When the chain dies, restart from the hottest
     unplaced block. Stable under small count perturbations — a desirable
     property Ext-TSP implementations work hard for. *)
  let placed = Hashtbl.create 16 in
  let out = ref [] in
  let hot_set = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace hot_set l ()) hot_labels;
  let succ_weights l =
    match Ir.Func.find_block f l with
    | None -> []
    | Some b ->
        let succs = Ir.Block.successors b in
        let static_d =
          if f.Ir.Func.annotated then fun _ -> 0L
          else
            (* static heuristic: prefer the first successor (then-branch)
               slightly, and back edges to already-placed headers last *)
            fun i -> Int64.of_int (-i)
        in
        List.mapi
          (fun i s ->
            let w =
              if f.Ir.Func.annotated && i < Array.length b.Ir.Block.edge_counts then
                b.Ir.Block.edge_counts.(i)
              else static_d i
            in
            (s, w))
          succs
  in
  let rec extend l =
    if (not (Hashtbl.mem placed l)) && Hashtbl.mem hot_set l then begin
      Hashtbl.replace placed l ();
      out := l :: !out;
      let candidates =
        succ_weights l
        |> List.filter (fun (s, _) -> (not (Hashtbl.mem placed s)) && Hashtbl.mem hot_set s)
        |> List.stable_sort (fun (_, w1) (_, w2) -> Int64.compare w2 w1)
      in
      match candidates with
      | (s, _) :: _ -> extend s
      | [] -> ()
    end
  in
  extend f.Ir.Func.entry;
  (* Restart points: hottest remaining blocks first. *)
  let remaining () =
    hot_labels
    |> List.filter (fun l -> not (Hashtbl.mem placed l))
    |> List.stable_sort (fun l1 l2 ->
           Int64.compare (Ir.Func.block f l2).Ir.Block.count
             (Ir.Func.block f l1).Ir.Block.count)
  in
  let rec drain () =
    match remaining () with
    | [] -> ()
    | l :: _ ->
        extend l;
        drain ()
  in
  drain ();
  { hot = List.rev !out; cold }

let ext_tsp_score_impl (f : Ir.Func.t) order =
  let pos = Hashtbl.create 16 in
  let addr = ref 0 in
  List.iter
    (fun l ->
      Hashtbl.replace pos l !addr;
      addr := !addr + (3 * block_size f l))
    order;
  List.fold_left
    (fun acc (s, d, w) ->
      match (Hashtbl.find_opt pos s, Hashtbl.find_opt pos d) with
      | Some ps, Some pd ->
          let ps_end = ps + (3 * block_size f s) in
          let wf = Int64.to_float w in
          if pd = ps_end then acc +. wf
          else if pd > ps_end && pd - ps_end < 1024 then acc +. (0.1 *. wf)
          else if pd < ps_end && ps_end - pd < 1024 then acc +. (0.05 *. wf)
          else acc
      | _ -> acc)
    0.0 (edge_weights f)

(* Full Ext-TSP greedy: merge the chain pair with the best score gain.
   The objective only depends on relative distances, so concatenating two
   chains changes the score exactly by the contribution of the edges that
   cross between them — an O(cross-edges) incremental gain. Very large
   functions still fall back to the linear hot-path placement (real
   Ext-TSP implementations impose similar caps). *)
let ext_tsp_max_blocks = 96

let order_ext_tsp ~split (f : Ir.Func.t) =
  if Ir.Func.n_blocks f > ext_tsp_max_blocks then order ~split f
  else begin
    let reach = Ir.Cfg.reachable f in
    let labels = List.filter (Hashtbl.mem reach) (Ir.Func.labels f) in
    let is_cold l =
      split && f.Ir.Func.annotated && l <> f.Ir.Func.entry
      && Int64.equal (Ir.Func.block f l).Ir.Block.count 0L
    in
    let hot_labels = List.filter (fun l -> not (is_cold l)) labels in
    let cold = List.filter is_cold labels in
    let hot_set = Hashtbl.create 16 in
    List.iter (fun l -> Hashtbl.replace hot_set l ()) hot_labels;
    (* Edges grouped by source block, hot endpoints only. *)
    let out_edges = Hashtbl.create 16 in
    List.iter
      (fun (src, dst, w) ->
        if Hashtbl.mem hot_set src && Hashtbl.mem hot_set dst then
          Hashtbl.replace out_edges src
            ((dst, w) :: Option.value (Hashtbl.find_opt out_edges src) ~default:[]))
      (edge_weights f);
    (* Contribution of one edge given the two endpoint offsets. *)
    let edge_score src_off src_l dst_off w =
      let src_end = src_off + (3 * block_size f src_l) in
      let wf = Int64.to_float w in
      if dst_off = src_end then wf
      else if dst_off > src_end && dst_off - src_end < 1024 then 0.1 *. wf
      else if dst_off < src_end && src_end - dst_off < 1024 then 0.05 *. wf
      else 0.0
    in
    (* Gain of placing chain [b] directly after chain [a]: evaluate only the
       edges crossing between them in the concatenated placement. *)
    let chain_sizes = Hashtbl.create 16 in
    let size_of_chain c =
      match Hashtbl.find_opt chain_sizes c with
      | Some s -> s
      | None ->
          let s = List.fold_left (fun acc l -> acc + (3 * block_size f l)) 0 c in
          Hashtbl.replace chain_sizes c s;
          s
    in
    let offsets_of c base =
      let tbl = Hashtbl.create 8 in
      let off = ref base in
      List.iter
        (fun l ->
          Hashtbl.replace tbl l !off;
          off := !off + (3 * block_size f l))
        c;
      tbl
    in
    let cross_gain a b =
      let pos_a = offsets_of a 0 in
      let pos_b = offsets_of b (size_of_chain a) in
      let acc = ref 0.0 in
      let eval_from pos_src pos_dst chain =
        List.iter
          (fun l ->
            List.iter
              (fun (dst, w) ->
                match (Hashtbl.find_opt pos_src l, Hashtbl.find_opt pos_dst dst) with
                | Some so, Some d_off -> acc := !acc +. edge_score so l d_off w
                | _ -> ())
              (Option.value (Hashtbl.find_opt out_edges l) ~default:[]))
          chain
      in
      eval_from pos_a pos_b a;
      eval_from pos_b pos_a b;
      !acc
    in
    let chains = ref (List.map (fun l -> [ l ]) hot_labels) in
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      let best = ref None in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if i <> j && not (List.mem f.Ir.Func.entry b) then begin
                let gain = cross_gain a b in
                match !best with
                | Some (g, _, _) when g >= gain -> ()
                | _ -> if gain > 1e-9 then best := Some (gain, i, j)
              end)
            !chains)
        !chains;
      match !best with
      | Some (_, i, j) ->
          let a = List.nth !chains i and b = List.nth !chains j in
          chains := (a @ b) :: List.filteri (fun k _ -> k <> i && k <> j) !chains;
          continue_ := true
      | None -> ()
    done;
    let density ls =
      let count =
        List.fold_left (fun acc l -> Int64.add acc (Ir.Func.block f l).Ir.Block.count) 0L ls
      in
      let size = List.fold_left (fun acc l -> acc + block_size f l) 0 ls in
      Int64.to_float count /. float_of_int (max 1 size)
    in
    let entry_chain, rest = List.partition (fun c -> List.mem f.Ir.Func.entry c) !chains in
    let rest = List.stable_sort (fun a b -> compare (density b) (density a)) rest in
    { hot = List.concat (entry_chain @ rest); cold }
  end

let ext_tsp_score = ext_tsp_score_impl
