module Ir = Csspgo_ir
module Mach = Csspgo_codegen.Mach
module P = Csspgo_profile
module Pg = Csspgo_profgen
module Counter = Csspgo_support.Counter

let probes_in_range (b : Mach.binary) (lo, hi) =
  let probes = b.Mach.probes in
  let n = Array.length probes in
  (* First index with pr_addr >= lo. *)
  let rec lower l r = if l >= r then l else
    let m = (l + r) / 2 in
    if probes.(m).Mach.pr_addr < lo then lower (m + 1) r else lower l m
  in
  let start = lower 0 n in
  let out = ref [] in
  let i = ref start in
  while !i < n && probes.(!i).Mach.pr_addr <= hi do
    out := probes.(!i) :: !out;
    incr i
  done;
  List.rev !out

let default_name guid = Format.asprintf "%a" Ir.Guid.pp guid

let correlate_agg ?(name_of = fun _ -> None) ?index ~checksum_of
    ?(obs = Csspgo_obs.Metrics.null) (b : Mach.binary) (agg : Pg.Ranges.agg) =
  let prof = P.Probe_profile.create () in
  let n_ranges = ref 0 and n_unmatched = ref 0 and n_hits = ref 0 and n_calls = ref 0 in
  (* Named only when first added: the lookup and hex fallback are not
     paid per probe hit. *)
  let fentry guid =
    let fe =
      match P.Probe_profile.get prof guid with
      | Some fe -> fe
      | None ->
          let name = match name_of guid with Some n -> n | None -> default_name guid in
          P.Probe_profile.get_or_add prof guid ~name
    in
    if Int64.equal fe.P.Probe_profile.fe_checksum 0L then
      fe.P.Probe_profile.fe_checksum <- checksum_of guid;
    fe
  in
  (* Probe counts: sum over all physical copies covered by ranges. *)
  Counter.iter
    (fun range n ->
      incr n_ranges;
      match probes_in_range b range with
      | [] -> incr n_unmatched
      | prs ->
          List.iter
            (fun (pr : Mach.probe_rec) ->
              incr n_hits;
              P.Probe_profile.add_probe (fentry pr.Mach.pr_func) pr.Mach.pr_id n)
            prs)
    agg.Pg.Ranges.range_counts;
  (* Callsite targets: executed calls attributed to their callsite probe in
     the probe's owner function (the innermost inline frame's origin). *)
  let totals = Pg.Ranges.addr_totals ?index b agg in
  Array.iter
    (fun (inst : Mach.inst) ->
      if inst.Mach.i_cs_probe > 0 then
        match inst.Mach.i_op with
        | Mach.MCall c | Mach.MTail_call c -> (
            match Counter.find_opt totals inst.Mach.i_addr with
            | Some total when Int64.compare total 0L > 0 ->
                let owner =
                  if Ir.Dloc.is_none inst.Mach.i_dloc then
                    (* not inlined: owner is the containing function *)
                    b.Mach.funcs.(inst.Mach.i_func).Mach.bf_guid
                  else inst.Mach.i_dloc.Ir.Dloc.origin
                in
                incr n_calls;
                P.Probe_profile.add_call (fentry owner) inst.Mach.i_cs_probe c.Mach.m_callee
                  total
            | _ -> ())
        | _ -> ())
    b.Mach.insts;
  (* Head counts. *)
  Counter.iter
    (fun (_, tgt) n ->
      match Mach.func_index_of_addr b tgt with
      | Some i when b.Mach.funcs.(i).Mach.bf_start = tgt ->
          let fe = fentry b.Mach.funcs.(i).Mach.bf_guid in
          fe.P.Probe_profile.fe_head <- Int64.add fe.P.Probe_profile.fe_head n
      | _ -> ())
    agg.Pg.Ranges.branch_counts;
  let module M = Csspgo_obs.Metrics in
  M.bump (M.counter obs "probe-corr.ranges") !n_ranges;
  M.bump (M.counter obs "probe-corr.ranges-unmatched") !n_unmatched;
  M.bump (M.counter obs "probe-corr.probe-hits") !n_hits;
  M.bump (M.counter obs "probe-corr.callsites") !n_calls;
  prof

let correlate ?name_of ~checksum_of ?obs (b : Mach.binary) samples =
  correlate_agg ?name_of ~checksum_of ?obs b (Pg.Ranges.aggregate samples)
