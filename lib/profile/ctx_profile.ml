module Ir = Csspgo_ir

type frame = Ir.Guid.t * int

type node = {
  n_func : Ir.Guid.t;
  mutable n_name : string;
  mutable n_inlined : bool;
  n_prof : Probe_profile.fentry;
  n_children : (frame_key, node) Hashtbl.t;
}

and frame_key = int * Ir.Guid.t

type t = {
  roots : node Ir.Guid.Tbl.t;
}

let fresh_fentry () =
  {
    Probe_profile.fe_total = 0L;
    fe_head = 0L;
    fe_probes = Hashtbl.create 16;
    fe_calls = Hashtbl.create 4;
    fe_checksum = 0L;
  }

let mk_node guid name =
  {
    n_func = guid;
    n_name = name;
    n_inlined = false;
    n_prof = fresh_fentry ();
    n_children = Hashtbl.create 4;
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
      let cur = ref root in
      List.iter
        (fun (((_, site) : frame), child_guid, child_name) ->
          let key = (site, child_guid) in
          let child =
            match Hashtbl.find_opt !cur.n_children key with
            | Some c -> c
            | None ->
                let c = mk_node child_guid child_name in
                Hashtbl.replace !cur.n_children key c;
                c
          in
          cur := child)
        path;
      Some !cur

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

let merge_fentry ~(into : Probe_profile.fentry) (src : Probe_profile.fentry) =
  Hashtbl.iter (fun id c -> Probe_profile.add_probe into id c) src.Probe_profile.fe_probes;
  Hashtbl.iter
    (fun site tbl ->
      Hashtbl.iter (fun callee c -> Probe_profile.add_call into site callee c) tbl)
    src.Probe_profile.fe_calls;
  into.Probe_profile.fe_head <- Int64.add into.Probe_profile.fe_head src.Probe_profile.fe_head;
  if Int64.equal into.Probe_profile.fe_checksum 0L then
    into.Probe_profile.fe_checksum <- src.Probe_profile.fe_checksum

(* Merge [src] into [dst] recursively (same function). *)
let rec merge_node ~(dst : node) (src : node) =
  merge_fentry ~into:dst.n_prof src.n_prof;
  Hashtbl.iter
    (fun key child ->
      match Hashtbl.find_opt dst.n_children key with
      | Some existing -> merge_node ~dst:existing child
      | None -> Hashtbl.replace dst.n_children key child)
    src.n_children;
  (* Detach the source subtree so a second promotion of the same node (e.g.
     from a stale traversal snapshot) cannot double-count. *)
  Hashtbl.reset src.n_children;
  src.n_prof.Probe_profile.fe_total <- 0L;
  src.n_prof.Probe_profile.fe_head <- 0L;
  Hashtbl.reset src.n_prof.Probe_profile.fe_probes;
  Hashtbl.reset src.n_prof.Probe_profile.fe_calls

let promote_to_base t ~parent ~key =
  match Hashtbl.find_opt parent.n_children key with
  | None -> ()
  | Some child ->
      Hashtbl.remove parent.n_children key;
      let b = base t child.n_func ~name:child.n_name in
      b.n_name <- child.n_name;
      merge_node ~dst:b child

let subtree_total node =
  let rec go n =
    Hashtbl.fold (fun _ c acc -> Int64.add acc (go c)) n.n_children n.n_prof.Probe_profile.fe_total
  in
  go node

let trim_cold t ~threshold =
  let removed = ref 0 in
  let rec sweep node =
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) node.n_children [] in
    List.iter
      (fun key ->
        match Hashtbl.find_opt node.n_children key with
        | None -> ()
        | Some child ->
            if Int64.compare (subtree_total child) threshold < 0 then begin
              promote_to_base t ~parent:node ~key;
              incr removed
            end
            else sweep child)
      (List.sort compare keys)
  in
  (* Promotion re-roots subtrees under other bases (possibly creating new
     roots mid-iteration), so sweep over root snapshots until a fixpoint. *)
  let continue_ = ref true in
  while !continue_ do
    let before = !removed in
    let roots = Ir.Guid.Tbl.fold (fun g _ acc -> g :: acc) t.roots [] in
    List.iter
      (fun g ->
        match Ir.Guid.Tbl.find_opt t.roots g with
        | Some root -> sweep root
        | None -> ())
      (List.sort Ir.Guid.compare roots);
    continue_ := !removed > before
  done;
  !removed

let n_nodes t =
  let n = ref 0 in
  iter_nodes t (fun _ _ -> incr n);
  !n

let size_bytes t =
  let bytes = ref 0 in
  iter_nodes t (fun ctx node ->
      (* context string + per-probe entries + per-call-target entries *)
      bytes := !bytes + 24 + (12 * List.length ctx);
      bytes := !bytes + (10 * Hashtbl.length node.n_prof.Probe_profile.fe_probes);
      Hashtbl.iter
        (fun _ tbl -> bytes := !bytes + (18 * Hashtbl.length tbl))
        node.n_prof.Probe_profile.fe_calls);
  !bytes

let total_samples t =
  let total = ref 0L in
  iter_nodes t (fun _ node -> total := Int64.add !total node.n_prof.Probe_profile.fe_total);
  !total

let pp fmt t =
  iter_nodes t (fun ctx node ->
      List.iter (fun (g, s) -> Format.fprintf fmt "%a:%d @ " Ir.Guid.pp g s) ctx;
      Format.fprintf fmt "%s total=%Ld head=%Ld%s@." node.n_name
        node.n_prof.Probe_profile.fe_total node.n_prof.Probe_profile.fe_head
        (if node.n_inlined then " [inlined]" else ""))
