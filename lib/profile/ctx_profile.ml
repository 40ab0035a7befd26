module Ir = Csspgo_ir

type frame = Ir.Guid.t * int

type node = {
  n_func : Ir.Guid.t;
  mutable n_name : string;
  mutable n_inlined : bool;
  n_prof : Probe_profile.fentry;
  n_children : (frame_key, node) Hashtbl.t;
  mutable n_sub : int64;
}

and frame_key = int * Ir.Guid.t

type t = {
  roots : node Ir.Guid.Tbl.t;
}

let mk_node guid name =
  {
    n_func = guid;
    n_name = name;
    n_inlined = false;
    n_prof = Counts.fresh Probe_profile.shape 16;
    n_children = Hashtbl.create 4;
    n_sub = 0L;
  }

let create () = { roots = Ir.Guid.Tbl.create 64 }

let base t guid ~name =
  match Ir.Guid.Tbl.find_opt t.roots guid with
  | Some n -> n
  | None ->
      let n = mk_node guid name in
      Ir.Guid.Tbl.replace t.roots guid n;
      n

let attach t ~parent ~site guid ~name =
  match parent with
  | None -> base t guid ~name
  | Some p -> (
      let key = (site, guid) in
      match Hashtbl.find_opt p.n_children key with
      | Some c -> c
      | None ->
          let c = mk_node guid name in
          Hashtbl.replace p.n_children key c;
          c)

let node_at t ~path =
  match path with
  | [] -> None
  | ((root_guid, _), _, _) :: _ ->
      let root =
        match Ir.Guid.Tbl.find_opt t.roots root_guid with
        | Some n -> n
        | None -> base t root_guid ~name:(Format.asprintf "%a" Ir.Guid.pp root_guid)
      in
      Some
        (List.fold_left
           (fun parent (((_, site) : frame), guid, name) ->
             attach t ~parent:(Some parent) ~site guid ~name)
           root path)

let iter_nodes t f =
  let rec go ctx node =
    f (List.rev ctx) node;
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) node.n_children []
    |> List.sort (fun ((s1, g1), _) ((s2, g2), _) ->
           let c = compare s1 s2 in
           if c <> 0 then c else Ir.Guid.compare g1 g2)
    |> List.iter (fun ((site, _), child) -> go ((node.n_func, site) :: ctx) child)
  in
  Ir.Guid.Tbl.fold (fun g n acc -> (g, n) :: acc) t.roots []
  |> List.sort (fun (g1, _) (g2, _) -> Ir.Guid.compare g1 g2)
  |> List.iter (fun (_, root) -> go [] root)

let find_node t ~leaf pred =
  let found = ref None in
  iter_nodes t (fun ctx node ->
      if !found = None && Ir.Guid.equal node.n_func leaf && pred ctx then found := Some node);
  !found

(* Merge [src] into [dst] recursively (same function). Returns how much
   the totals under [dst] grew, so a trim can keep the cached subtree total
   of every node the merge reaches. *)
let rec merge_node ~(dst : node) (src : node) =
  let before = dst.n_prof.Probe_profile.fe_total in
  Counts.merge Probe_profile.shape ~into:dst.n_prof ~weight:1L src.n_prof;
  (* A promotion keeps the base's checksum, or takes the first non-zero. *)
  if Int64.equal dst.n_prof.Probe_profile.fe_checksum 0L then
    dst.n_prof.Probe_profile.fe_checksum <- src.n_prof.Probe_profile.fe_checksum;
  let added = ref (Int64.sub dst.n_prof.Probe_profile.fe_total before) in
  Hashtbl.iter
    (fun key child ->
      match Hashtbl.find_opt dst.n_children key with
      | Some existing -> added := Int64.add !added (merge_node ~dst:existing child)
      | None ->
          Hashtbl.replace dst.n_children key child;
          added := Int64.add !added child.n_sub)
    src.n_children;
  dst.n_sub <- Int64.add dst.n_sub !added;
  (* Detach the source subtree so a second promotion of the same node (e.g.
     from a stale traversal snapshot) cannot double-count. *)
  Hashtbl.reset src.n_children;
  src.n_prof.Probe_profile.fe_total <- 0L;
  src.n_prof.Probe_profile.fe_head <- 0L;
  src.n_sub <- 0L;
  Hashtbl.reset src.n_prof.Probe_profile.fe_probes;
  Hashtbl.reset src.n_prof.Probe_profile.fe_calls;
  !added

let promote_to_base t ~parent ~key =
  match Hashtbl.find_opt parent.n_children key with
  | None -> ()
  | Some child ->
      Hashtbl.remove parent.n_children key;
      let b = base t child.n_func ~name:child.n_name in
      b.n_name <- child.n_name;
      ignore (merge_node ~dst:b child)

let rec fill_sub n =
  n.n_sub <-
    Hashtbl.fold (fun _ c acc -> Int64.add acc (fill_sub c)) n.n_children
      n.n_prof.Probe_profile.fe_total;
  n.n_sub

(* [n_sub] is every node's subtree total, filled once and kept by the
   promotions: [merge_node] adds what it moves into a base at once, and
   [sweep] returns what it promoted out of a subtree so each ancestor
   subtracts it as the walk unwinds. A node's total is stale only while
   its own sweep runs, and a sweep reads only its children's. *)
let trim_cold t ~threshold =
  let removed = ref 0 in
  let rec sweep node =
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) node.n_children [] in
    let gone =
      List.fold_left
        (fun gone key ->
          match Hashtbl.find_opt node.n_children key with
          | None -> gone
          | Some child ->
              if Int64.compare child.n_sub threshold < 0 then begin
                let sub = child.n_sub in
                promote_to_base t ~parent:node ~key;
                incr removed;
                Int64.add gone sub
              end
              else Int64.add gone (sweep child))
        0L (List.sort compare keys)
    in
    node.n_sub <- Int64.sub node.n_sub gone;
    gone
  in
  Ir.Guid.Tbl.iter (fun _ root -> ignore (fill_sub root)) t.roots;
  (* Promotion re-roots subtrees under other bases (possibly creating new
     roots mid-iteration), so sweep over root snapshots until a fixpoint. *)
  let continue_ = ref true in
  while !continue_ do
    let before = !removed in
    let roots = Ir.Guid.Tbl.fold (fun g _ acc -> g :: acc) t.roots [] in
    List.iter
      (fun g ->
        match Ir.Guid.Tbl.find_opt t.roots g with
        | Some root -> ignore (sweep root)
        | None -> ())
      (List.sort Ir.Guid.compare roots);
    continue_ := !removed > before
  done;
  !removed

(* Summaries visit every node in any order: a fold over the tables, with
   the depth as the only context they need. *)
let fold_nodes t f acc =
  let rec go depth n acc =
    Hashtbl.fold (fun _ c acc -> go (depth + 1) c acc) n.n_children (f depth n acc)
  in
  Ir.Guid.Tbl.fold (fun _ root acc -> go 0 root acc) t.roots acc

let n_nodes t = fold_nodes t (fun _ _ n -> n + 1) 0

let size_bytes t =
  fold_nodes t
    (fun depth node bytes ->
      (* context string + per-probe entries + per-call-target entries *)
      let fe = node.n_prof in
      Hashtbl.fold
        (fun _ tbl acc -> acc + (18 * Hashtbl.length tbl))
        fe.Probe_profile.fe_calls
        (bytes + 24 + (12 * depth) + (10 * Hashtbl.length fe.Probe_profile.fe_probes)))
    0

let total_samples t =
  fold_nodes t (fun _ node acc -> Int64.add acc node.n_prof.Probe_profile.fe_total) 0L

let copy_fentry (fe : Probe_profile.fentry) =
  let calls = Hashtbl.copy fe.Probe_profile.fe_calls in
  Hashtbl.filter_map_inplace (fun _ tbl -> Some (Hashtbl.copy tbl)) calls;
  { fe with Probe_profile.fe_probes = Hashtbl.copy fe.Probe_profile.fe_probes; fe_calls = calls }

let copy t =
  let rec node n =
    let children = Hashtbl.copy n.n_children in
    Hashtbl.filter_map_inplace (fun _ c -> Some (node c)) children;
    { n with n_prof = copy_fentry n.n_prof; n_children = children }
  in
  let roots = Ir.Guid.Tbl.copy t.roots in
  Ir.Guid.Tbl.filter_map_inplace (fun _ n -> Some (node n)) roots;
  { roots }
