module Ir = Csspgo_ir
module PP = Probe_profile
module LP = Line_profile
module CP = Ctx_profile

let check_weight w =
  if Int64.compare w 0L < 0 then invalid_arg "Merge: negative weight"

(* Names merge by minimum non-empty string — a commutative, associative,
   idempotent resolution, so merge order can never change the serialized
   name. Entries absent from the source stay absent (the writers' hex-guid
   default then reproduces the source bytes). *)
let better_name cur cand =
  if String.equal cand "" then cur
  else if String.equal cur "" then cand
  else if String.compare cand cur < 0 then cand
  else cur

let resolve_name names guid cand =
  if not (String.equal cand "") then
    match Ir.Guid.Tbl.find_opt names guid with
    | None -> Ir.Guid.Tbl.replace names guid cand
    | Some cur ->
        let b = better_name cur cand in
        if not (String.equal b cur) then Ir.Guid.Tbl.replace names guid b

(* Checksums merge by unsigned max: 0 (absent) never beats a real checksum,
   and max is the commutative/associative tie-break when two non-zero
   checksums meet (possible only for unmatched cross-version merges —
   stale matching stamps the target checksum before profiles get here). *)
let merge_probe ~into:(d : PP.fentry) ~weight (s : PP.fentry) =
  Counts.merge PP.shape ~into:d ~weight s;
  if Int64.unsigned_compare s.PP.fe_checksum d.PP.fe_checksum > 0 then
    d.PP.fe_checksum <- s.PP.fe_checksum

(* A merge adds a function's entry at size 16 and resolves its name
   separately, so an absent source name stays absent. *)
let entry_of sh funcs guid =
  match Ir.Guid.Tbl.find_opt funcs guid with
  | Some fe -> fe
  | None ->
      let fe = Counts.fresh sh 16 in
      Ir.Guid.Tbl.replace funcs guid fe;
      fe

(* One flat merge for both shapes: the shape's entry merge per function. *)
let flat sh merge_entry ~funcs ~names ~weight src_funcs src_names =
  check_weight weight;
  if not (Int64.equal weight 0L) then
    Ir.Guid.Tbl.iter
      (fun guid fe ->
        let d = entry_of sh funcs guid in
        (match Ir.Guid.Tbl.find_opt src_names guid with
        | Some n -> resolve_name names guid n
        | None -> ());
        merge_entry ~into:d ~weight fe)
      src_funcs

let probe ~(into : PP.t) ~weight (src : PP.t) =
  flat PP.shape merge_probe ~funcs:into.funcs ~names:into.names ~weight src.funcs src.names

let line ~(into : LP.t) ~weight (src : LP.t) =
  flat LP.shape (Counts.merge LP.shape) ~funcs:into.funcs ~names:into.names ~weight src.funcs
    src.names

(* Trie unification: walk the source trie and find-or-create the same
   (callsite, callee) chain in the destination via [Ctx_profile.attach] —
   the O(1) step primitive — accumulating each node's fentry on the way. *)
let rec merge_ctx_node t ~dst ~weight (s : CP.node) =
  merge_probe ~into:dst.CP.n_prof ~weight s.CP.n_prof;
  if s.CP.n_inlined then dst.CP.n_inlined <- true;
  dst.CP.n_name <- better_name dst.CP.n_name s.CP.n_name;
  Hashtbl.iter
    (fun ((site, guid) : CP.frame_key) child ->
      let c = CP.attach t ~parent:(Some dst) ~site guid ~name:child.CP.n_name in
      merge_ctx_node t ~dst:c ~weight child)
    s.CP.n_children

let ctx ~into ~weight (src : CP.t) =
  check_weight weight;
  if not (Int64.equal weight 0L) then
    Ir.Guid.Tbl.iter
      (fun guid root ->
        let dst = CP.attach into ~parent:None ~site:0 guid ~name:root.CP.n_name in
        merge_ctx_node into ~dst ~weight root)
      src.CP.roots

let into ~into:dst ~weight src =
  match (dst, src) with
  | Text_io.Probe_prof d, Text_io.Probe_prof s -> probe ~into:d ~weight s
  | Text_io.Line_prof d, Text_io.Line_prof s -> line ~into:d ~weight s
  | Text_io.Ctx_prof d, Text_io.Ctx_prof s -> ctx ~into:d ~weight s
  | _ ->
      invalid_arg
        (Printf.sprintf "Merge.into: cannot merge a %s profile into a %s profile"
           (Text_io.kind_name (Text_io.kind_of src))
           (Text_io.kind_name (Text_io.kind_of dst)))

let empty = function
  | Text_io.Line -> Text_io.Line_prof (LP.create ())
  | Text_io.Probe -> Text_io.Probe_prof (PP.create ())
  | Text_io.Ctx -> Text_io.Ctx_prof (CP.create ())

let weighted ~kind srcs =
  let acc = empty kind in
  List.iter (fun (weight, src) -> into ~into:acc ~weight src) srcs;
  acc

let weighted_pairs ~kind srcs =
  let flats =
    List.filter_map (fun (weight, _, flat) -> Option.map (fun f -> (weight, f)) flat) srcs
  in
  let flat =
    if List.compare_lengths flats srcs <> 0 then None
    else begin
      let acc = PP.create () in
      List.iter (fun (weight, f) -> probe ~into:acc ~weight f) flats;
      Some acc
    end
  in
  (weighted ~kind (List.map (fun (weight, p, _) -> (weight, p)) srcs), flat)

let copy p = weighted ~kind:(Text_io.kind_of p) [ (1L, p) ]

let flatten_ctx trie =
  let flat = PP.create () in
  CP.iter_nodes trie (fun _ node ->
      let fe = entry_of PP.shape flat.PP.funcs node.CP.n_func in
      resolve_name flat.PP.names node.CP.n_func node.CP.n_name;
      merge_probe ~into:fe ~weight:1L node.CP.n_prof);
  flat
