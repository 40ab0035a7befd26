module Ir = Csspgo_ir
module Fnv = Csspgo_support.Fnv
module PP = Probe_profile
module CP = Ctx_profile
module LP = Line_profile

let fentry_digest acc (fe : PP.fentry) =
  let acc = Fnv.int64 acc fe.PP.fe_head in
  let acc = Fnv.int64 acc fe.PP.fe_checksum in
  let acc =
    List.fold_left
      (fun acc (id, c) -> Fnv.int64 (Fnv.int acc id) c)
      (Fnv.int acc 1) (PP.sorted_probes fe)
  in
  List.fold_left
    (fun acc (site, callee, c) -> Fnv.int64 (Fnv.int64 (Fnv.int acc site) callee) c)
    (Fnv.int acc 2) (PP.sorted_calls fe)

let line_fentry_digest acc (fe : LP.fentry) =
  let acc = Fnv.int64 acc fe.LP.fe_head in
  let acc =
    List.fold_left
      (fun acc ((l, d), c) -> Fnv.int64 (Fnv.int (Fnv.int acc l) d) c)
      (Fnv.int acc 1) (LP.sorted_lines fe)
  in
  List.fold_left
    (fun acc ((l, d), g, c) ->
      Fnv.int64 (Fnv.int64 (Fnv.int (Fnv.int acc l) d) g) c)
    (Fnv.int acc 2) (LP.sorted_calls fe)

(* Accumulate one digest per guid; tables keep insertion cheap, the final
   sort restores determinism. *)
let collect fold =
  let tbl = Ir.Guid.Tbl.create 64 in
  let bump guid f =
    let cur = Option.value (Ir.Guid.Tbl.find_opt tbl guid) ~default:Fnv.init in
    Ir.Guid.Tbl.replace tbl guid (f cur)
  in
  fold bump;
  Ir.Guid.Tbl.fold (fun g d acc -> (g, d) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Ir.Guid.compare a b)

let per_func = function
  | Text_io.Probe_prof t ->
      collect (fun bump ->
          List.iter
            (fun (g, fe) -> bump g (fun acc -> fentry_digest acc fe))
            (PP.sorted_funcs t))
  | Text_io.Line_prof t ->
      collect (fun bump ->
          List.iter
            (fun (g, fe) -> bump g (fun acc -> line_fentry_digest acc fe))
            (LP.sorted_funcs t))
  | Text_io.Ctx_prof t ->
      collect (fun bump ->
          (* iter_nodes is a sorted DFS, so per-leaf accumulation order is
             deterministic; the context chain is folded in so a count that
             merely moves between contexts still changes the fingerprint. *)
          CP.iter_nodes t (fun ctx node ->
              bump node.CP.n_func (fun acc ->
                  let acc =
                    List.fold_left
                      (fun acc (g, site) -> Fnv.int (Fnv.int64 acc g) site)
                      (Fnv.int acc (List.length ctx))
                      ctx
                  in
                  let acc = Fnv.int acc (if node.CP.n_inlined then 1 else 0) in
                  fentry_digest acc node.CP.n_prof)))

let merged p =
  List.fold_left
    (fun acc (g, d) -> Fnv.int64 (Fnv.int64 acc g) d)
    Fnv.init (per_func p)

let delta old_fps new_fps =
  let rec go acc a b =
    match (a, b) with
    | [], [] -> List.rev acc
    | (g, _) :: a', [] -> go (g :: acc) a' []
    | [], (g, _) :: b' -> go (g :: acc) [] b'
    | (ga, da) :: a', (gb, db) :: b' ->
        let c = Ir.Guid.compare ga gb in
        if c < 0 then go (ga :: acc) a' b
        else if c > 0 then go (gb :: acc) a b'
        else if Int64.equal da db then go acc a' b'
        else go (ga :: acc) a' b'
  in
  go [] old_fps new_fps
