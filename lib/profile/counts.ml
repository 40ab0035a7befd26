module Ir = Csspgo_ir

type 'k calls = ('k, (Ir.Guid.t, int64) Hashtbl.t) Hashtbl.t

type ('fe, 'k) shape = {
  make : ('k, int64) Hashtbl.t -> 'k calls -> 'fe;
  counts : 'fe -> ('k, int64) Hashtbl.t;
  calls : 'fe -> 'k calls;
  total : 'fe -> int64;
  set_total : 'fe -> int64 -> unit;
  head : 'fe -> int64;
  set_head : 'fe -> int64 -> unit;
}

let fresh sh size = sh.make (Hashtbl.create size) (Hashtbl.create (size / 4))

let get_or_add sh ~funcs ~names guid ~name =
  match Ir.Guid.Tbl.find_opt funcs guid with
  | Some fe -> fe
  | None ->
      let fe = fresh sh 32 in
      Ir.Guid.Tbl.replace funcs guid fe;
      Ir.Guid.Tbl.replace names guid name;
      fe

let find tbl key = match Hashtbl.find tbl key with c -> c | exception Not_found -> 0L

(* The weight multiplies inside the bump, so a merge boxes no scaled count. *)
let add_scaled sh fe key weight n =
  let n = Int64.mul weight n in
  let tbl = sh.counts fe in
  Hashtbl.replace tbl key (Int64.add (find tbl key) n);
  sh.set_total fe (Int64.add (sh.total fe) n)

let add_call_scaled sh fe key callee weight n =
  let calls = sh.calls fe in
  let tbl =
    match Hashtbl.find calls key with
    | tbl -> tbl
    | exception Not_found ->
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace calls key tbl;
        tbl
  in
  Hashtbl.replace tbl callee (Int64.add (find tbl callee) (Int64.mul weight n))

let add sh fe key n = add_scaled sh fe key 1L n
let add_call sh fe key callee n = add_call_scaled sh fe key callee 1L n
let count sh fe key = find (sh.counts fe) key

let call_counts sh fe key =
  match Hashtbl.find_opt (sh.calls fe) key with
  | None -> []
  | Some tbl ->
      Hashtbl.fold (fun g c acc -> (g, c) :: acc) tbl []
      |> List.sort (fun (g1, _) (g2, _) -> Ir.Guid.compare g1 g2)

let merge sh ~into ~weight src =
  Hashtbl.iter (fun key c -> add_scaled sh into key weight c) (sh.counts src);
  Hashtbl.iter
    (fun key tbl ->
      Hashtbl.iter (fun callee c -> add_call_scaled sh into key callee weight c) tbl)
    (sh.calls src);
  sh.set_head into (Int64.add (sh.head into) (Int64.mul weight (sh.head src)))

let total_samples sh funcs =
  Ir.Guid.Tbl.fold (fun _ fe acc -> Int64.add acc (sh.total fe)) funcs 0L

let sorted_funcs funcs =
  Ir.Guid.Tbl.fold (fun g fe acc -> (g, fe) :: acc) funcs []
  |> List.sort (fun (a, _) (b, _) -> Ir.Guid.compare a b)

let sorted sh fe =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) (sh.counts fe) [] |> List.sort compare

let sorted_calls sh fe =
  Hashtbl.fold
    (fun k tbl acc -> Hashtbl.fold (fun callee c acc -> (k, callee, c) :: acc) tbl acc)
    (sh.calls fe) []
  |> List.sort compare
