module Ir = Csspgo_ir
module Fnv = Csspgo_support.Fnv
module PP = Probe_profile
module CP = Ctx_profile
module LP = Line_profile

(* One digest of the count layout after an entry's head (and checksum):
   tag 1, every (key, count), tag 2, every (key, callee, count), in the
   canonical order. [key] folds a key into the digest. *)
let counts_digest sh key acc fe =
  let acc =
    List.fold_left
      (fun acc (k, c) -> Fnv.int64 (key acc k) c)
      (Fnv.int acc 1) (Counts.sorted sh fe)
  in
  List.fold_left
    (fun acc (k, callee, c) -> Fnv.int64 (Fnv.int64 (key acc k) callee) c)
    (Fnv.int acc 2) (Counts.sorted_calls sh fe)

let probe_key acc id = Fnv.int acc id
let line_key acc (l, d) = Fnv.int (Fnv.int acc l) d

let fentry_digest acc (fe : PP.fentry) =
  let acc = Fnv.int64 (Fnv.int64 acc fe.PP.fe_head) fe.PP.fe_checksum in
  counts_digest PP.shape probe_key acc fe

let per_func = function
  | Text_io.Probe_prof t ->
      List.map (fun (g, fe) -> (g, fentry_digest Fnv.init fe)) (Counts.sorted_funcs t.PP.funcs)
  | Text_io.Line_prof t ->
      List.map
        (fun (g, (fe : LP.fentry)) ->
          (g, counts_digest LP.shape line_key (Fnv.int64 Fnv.init fe.LP.fe_head) fe))
        (Counts.sorted_funcs t.LP.funcs)
  | Text_io.Ctx_prof t ->
      (* A function recurs across contexts: accumulate one digest per guid
         in a table, then sort. iter_nodes is a sorted DFS, so per-leaf
         accumulation order is deterministic; the context chain is folded
         in so a count that merely moves between contexts still changes
         the fingerprint. *)
      let tbl = Ir.Guid.Tbl.create 64 in
      CP.iter_nodes t (fun ctx node ->
          let acc =
            Option.value (Ir.Guid.Tbl.find_opt tbl node.CP.n_func) ~default:Fnv.init
          in
          let acc =
            List.fold_left
              (fun acc (g, site) -> Fnv.int (Fnv.int64 acc g) site)
              (Fnv.int acc (List.length ctx))
              ctx
          in
          let acc = Fnv.int acc (if node.CP.n_inlined then 1 else 0) in
          Ir.Guid.Tbl.replace tbl node.CP.n_func (fentry_digest acc node.CP.n_prof));
      Ir.Guid.Tbl.fold (fun g d acc -> (g, d) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> Ir.Guid.compare a b)

let merged p =
  List.fold_left
    (fun acc (g, d) -> Fnv.int64 (Fnv.int64 acc g) d)
    Fnv.init (per_func p)
