module Ir = Csspgo_ir
module Mach = Csspgo_codegen.Mach
module P = Csspgo_profile
module Itab = Csspgo_support.Itab

let correlate_agg ~name_of ~index ?(obs = Csspgo_obs.Metrics.null) (b : Mach.binary)
    (agg : Ranges.agg) =
  if Bindex.binary index != b then
    invalid_arg "Dwarf_corr.correlate_agg: index built on another binary";
  let totals = Ranges.addr_totals ~index agg in
  let prof = P.Line_profile.create () in
  let n_addrs = ref 0 and n_unmapped = ref 0 and n_calls = ref 0 in
  let name_for guid =
    match name_of guid with
    | Some n -> n
    | None -> (
        match Array.find_opt (fun f -> Ir.Guid.equal f.Mach.bf_guid guid) b.Mach.funcs with
        | Some f -> f.Mach.bf_name
        | None -> Format.asprintf "%a" Ir.Guid.pp guid)
  in
  let entry (d : Ir.Dloc.t) =
    P.Line_profile.get_or_add prof d.Ir.Dloc.origin ~name:(name_for d.Ir.Dloc.origin)
  in
  (* Line counts: max across instructions sharing a location. *)
  Itab.iter
    (fun addr _ _ total ->
      incr n_addrs;
      match Bindex.idx_of_addr index addr with
      | -1 -> incr n_unmapped
      | i ->
          let d = (Bindex.inst index i).Mach.i_dloc in
          if Ir.Dloc.is_none d then incr n_unmapped
          else
            P.Line_profile.set_line_max (entry d) (d.Ir.Dloc.line, d.Ir.Dloc.disc)
              (Int64.of_int total))
    totals;
  (* Callsite targets, from the execution totals of call instructions. *)
  Ranges.iter_calls ~index totals (fun inst callee total ->
      let d = inst.Mach.i_dloc in
      if not (Ir.Dloc.is_none d) then begin
        incr n_calls;
        P.Line_profile.add_call (entry d) (d.Ir.Dloc.line, d.Ir.Dloc.disc) callee
          (Int64.of_int total)
      end);
  (* Head counts: LBR branches landing on a function entry. *)
  Ranges.iter_heads ~index agg (fun f n ->
      let fe = P.Line_profile.get_or_add prof f.Mach.bf_guid ~name:f.Mach.bf_name in
      fe.P.Line_profile.fe_head <- Int64.add fe.P.Line_profile.fe_head (Int64.of_int n));
  let module M = Csspgo_obs.Metrics in
  M.bump (M.counter obs "dwarf-corr.addrs") !n_addrs;
  M.bump (M.counter obs "dwarf-corr.addrs-unmapped") !n_unmapped;
  M.bump (M.counter obs "dwarf-corr.callsites") !n_calls;
  prof
