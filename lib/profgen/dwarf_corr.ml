module Ir = Csspgo_ir
module Mach = Csspgo_codegen.Mach
module P = Csspgo_profile
module Itab = Csspgo_support.Itab

let correlate_agg ~name_of ~index ?(obs = Csspgo_obs.Metrics.null) (b : Mach.binary)
    (agg : Ranges.agg) =
  let totals = Ranges.addr_totals ~index agg in
  let prof = P.Line_profile.create () in
  let n_addrs = ref 0 and n_unmapped = ref 0 and n_calls = ref 0 in
  let name_for guid =
    match name_of guid with
    | Some n -> n
    | None -> (
        match Mach.entry_addr b guid with
        | Some a -> (
            match Mach.func_index_of_addr b a with
            | Some i -> b.Mach.funcs.(i).Mach.bf_name
            | None -> Format.asprintf "%a" Ir.Guid.pp guid)
        | None -> Format.asprintf "%a" Ir.Guid.pp guid)
  in
  (* Line counts: max across instructions sharing a location. *)
  Itab.iter
    (fun addr _ _ total ->
      incr n_addrs;
      match Mach.inst_at b addr with
      | None -> incr n_unmapped
      | Some inst ->
          let d = inst.Mach.i_dloc in
          if Ir.Dloc.is_none d then incr n_unmapped
          else begin
            let fe = P.Line_profile.get_or_add prof d.Ir.Dloc.origin ~name:(name_for d.Ir.Dloc.origin) in
            P.Line_profile.set_line_max fe (d.Ir.Dloc.line, d.Ir.Dloc.disc) (Int64.of_int total)
          end)
    totals;
  (* Callsite targets, from the execution totals of call instructions. *)
  Array.iter
    (fun (inst : Mach.inst) ->
      match inst.Mach.i_op with
      | Mach.MCall c | Mach.MTail_call c -> (
          match Itab.find totals inst.Mach.i_addr 0 0 with
          | total when total > 0 ->
              let d = inst.Mach.i_dloc in
              if not (Ir.Dloc.is_none d) then begin
                incr n_calls;
                let fe =
                  P.Line_profile.get_or_add prof d.Ir.Dloc.origin
                    ~name:(name_for d.Ir.Dloc.origin)
                in
                P.Line_profile.add_call fe (d.Ir.Dloc.line, d.Ir.Dloc.disc) c.Mach.m_callee
                  (Int64.of_int total)
              end
          | _ -> ())
      | _ -> ())
    b.Mach.insts;
  (* Head counts: LBR branches landing on a function entry. *)
  Ranges.iter_branches
    (fun _ tgt n ->
      match Mach.func_index_of_addr b tgt with
      | Some i when b.Mach.funcs.(i).Mach.bf_start = tgt ->
          let f = b.Mach.funcs.(i) in
          let fe = P.Line_profile.get_or_add prof f.Mach.bf_guid ~name:f.Mach.bf_name in
          fe.P.Line_profile.fe_head <- Int64.add fe.P.Line_profile.fe_head (Int64.of_int n)
      | _ -> ())
    agg;
  let module M = Csspgo_obs.Metrics in
  M.bump (M.counter obs "dwarf-corr.addrs") !n_addrs;
  M.bump (M.counter obs "dwarf-corr.addrs-unmapped") !n_unmapped;
  M.bump (M.counter obs "dwarf-corr.callsites") !n_calls;
  prof
