module Ir = Csspgo_ir

let func_overlap ~(truth : Ir.Func.t) (cand : Ir.Func.t) =
  let sum f = Int64.to_float (Ir.Func.total_count f) in
  let st = sum truth and sc = sum cand in
  if st <= 0.0 || sc <= 0.0 then None
  else begin
    let overlap = ref 0.0 in
    Ir.Func.iter_blocks
      (fun bt ->
        match Ir.Func.find_block cand bt.Ir.Block.id with
        | Some bc ->
            let ft = Int64.to_float bt.Ir.Block.count /. st in
            let fc = Int64.to_float bc.Ir.Block.count /. sc in
            overlap := !overlap +. min ft fc
        | None -> ())
      truth;
    Some !overlap
  end

let block_overlap ~(truth : Ir.Program.t) (cand : Ir.Program.t) =
  let total_weight = ref 0.0 in
  let acc = ref 0.0 in
  Ir.Program.iter_funcs
    (fun ct ->
      match Ir.Program.find_func truth ct.Ir.Func.name with
      | None -> ()
      | Some tf -> (
          let w = Int64.to_float (Ir.Func.total_count ct) in
          match func_overlap ~truth:tf ct with
          | Some d when w > 0.0 ->
              acc := !acc +. (d *. w);
              total_weight := !total_weight +. w
          | _ -> ()))
    cand;
  if !total_weight <= 0.0 then 0.0 else !acc /. !total_weight

(* Flatten a profile into a (key, count) table for distribution overlap.
   Keys are (guid, a, b): probe profiles use (guid, probe, 0) body counts,
   line profiles (guid, line, disc); context tries flatten to their
   context-merged probe view first. *)
let profile_counts (p : Csspgo_profile.Text_io.profile) =
  let module P = Csspgo_profile in
  let tbl : (Ir.Guid.t * int * int, int64) Hashtbl.t = Hashtbl.create 64 in
  let add key c =
    if Int64.compare c 0L > 0 then
      let prev = try Hashtbl.find tbl key with Not_found -> 0L in
      Hashtbl.replace tbl key (Int64.add prev c)
  in
  let flat sh key funcs =
    Ir.Guid.Tbl.iter
      (fun guid fe -> Hashtbl.iter (fun k c -> add (key guid k) c) (sh.P.Counts.counts fe))
      funcs
  in
  let probe_key guid id = (guid, id, 0) in
  (match p with
  | P.Text_io.Probe_prof pp -> flat P.Probe_profile.shape probe_key pp.P.Probe_profile.funcs
  | P.Text_io.Ctx_prof cp ->
      flat P.Probe_profile.shape probe_key (P.Merge.flatten_ctx cp).P.Probe_profile.funcs
  | P.Text_io.Line_prof lp ->
      flat P.Line_profile.shape
        (fun guid (line, disc) -> (guid, line, disc))
        lp.P.Line_profile.funcs);
  tbl

let profile_overlap a b =
  let module P = Csspgo_profile in
  if P.Text_io.kind_of a <> P.Text_io.kind_of b then
    invalid_arg "Quality.profile_overlap: profile kinds differ";
  let ta = profile_counts a and tb = profile_counts b in
  let total t = Hashtbl.fold (fun _ c acc -> Int64.to_float c +. acc) t 0.0 in
  let sa = total ta and sb = total tb in
  if sa <= 0.0 && sb <= 0.0 then 1.0
  else if sa <= 0.0 || sb <= 0.0 then 0.0
  else
    Hashtbl.fold
      (fun key ca acc ->
        match Hashtbl.find_opt tb key with
        | None -> acc
        | Some cb ->
            acc +. min (Int64.to_float ca /. sa) (Int64.to_float cb /. sb))
      ta 0.0

type recovery = { rec_stale : float; rec_fresh : float; rec_ratio : float }

let recovery ~truth ~fresh stale =
  let rec_stale = block_overlap ~truth stale in
  let rec_fresh = block_overlap ~truth fresh in
  (* Guard the ratio: a fresh profile with zero overlap (unexecuted
     workload, fully dropped annotation) must not yield NaN or inf. *)
  let rec_ratio = if rec_fresh > 0.0 then rec_stale /. rec_fresh else 1.0 in
  { rec_stale; rec_fresh; rec_ratio }
