module Ir = Csspgo_ir
module Mach = Csspgo_codegen.Mach
module P = Csspgo_profile
module Pg = Csspgo_profgen

let default_name guid = Format.asprintf "%a" Ir.Guid.pp guid

let correlate_agg ~name_of ~index ~checksum_of
    ?(obs = Csspgo_obs.Metrics.null) (b : Mach.binary) (agg : Pg.Ranges.agg) =
  if Pg.Bindex.binary index != b then
    invalid_arg "Probe_corr.correlate_agg: index built on another binary";
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
  Pg.Ranges.iter_ranges
    (fun lo hi n ->
      incr n_ranges;
      let hits = !n_hits and n = Int64.of_int n in
      Pg.Bindex.iter_probes index (lo, hi) (fun pr ->
          incr n_hits;
          P.Probe_profile.add_probe (fentry pr.Mach.pr_func) pr.Mach.pr_id n);
      if !n_hits = hits then incr n_unmatched)
    agg;
  (* Callsite targets: executed calls attributed to their callsite probe in
     the probe's owner function (the innermost inline frame's origin). *)
  let totals = Pg.Ranges.addr_totals ~index agg in
  Pg.Ranges.iter_calls ~index totals (fun inst callee total ->
      if inst.Mach.i_cs_probe > 0 then begin
        let owner =
          if Ir.Dloc.is_none inst.Mach.i_dloc then
            (* not inlined: owner is the containing function *)
            b.Mach.funcs.(inst.Mach.i_func).Mach.bf_guid
          else inst.Mach.i_dloc.Ir.Dloc.origin
        in
        incr n_calls;
        P.Probe_profile.add_call (fentry owner) inst.Mach.i_cs_probe callee (Int64.of_int total)
      end);
  (* Head counts. *)
  Pg.Ranges.iter_heads ~index agg (fun f n ->
      let fe = fentry f.Mach.bf_guid in
      fe.P.Probe_profile.fe_head <- Int64.add fe.P.Probe_profile.fe_head (Int64.of_int n));
  let module M = Csspgo_obs.Metrics in
  M.bump (M.counter obs "probe-corr.ranges") !n_ranges;
  M.bump (M.counter obs "probe-corr.ranges-unmatched") !n_unmatched;
  M.bump (M.counter obs "probe-corr.probe-hits") !n_hits;
  M.bump (M.counter obs "probe-corr.callsites") !n_calls;
  prof
