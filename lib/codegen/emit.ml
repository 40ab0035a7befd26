open Csspgo_support
module Ir = Csspgo_ir
module I = Ir.Instr

type options = { layout : [ `Hot_path | `Ext_tsp ] }

let default_options = { layout = `Ext_tsp }

type patch =
  | PJmp of int * Ir.Types.label                    (* func ordinal, target *)
  | PJcc of int * Ir.Types.label
  | PSwitch of int * (int64 * Ir.Types.label) list * Ir.Types.label

type pending_inst = {
  p_addr : int;
  p_size : int;
  mutable p_op : Mach.mop;
  p_dloc : Ir.Dloc.t;
  p_func : int;
  p_cs : int;
}

type pending_probe = {
  pp_probe : I.probe;
  pp_dloc : Ir.Dloc.t;
  pp_global_idx : int;  (* index of the anchor instruction *)
}

let base_addr = 0x1000

let emit ~options (p : Ir.Program.t) =
  let names = Ir.Program.func_names p in
  let fn_list = List.map (Ir.Program.func p) names in
  let any_annotated = List.exists (fun f -> f.Ir.Func.annotated) fn_list in
  let ordered =
    if any_annotated then
      List.sort
        (fun a b ->
          let c = Int64.compare (Ir.Func.total_count b) (Ir.Func.total_count a) in
          if c <> 0 then c else String.compare a.Ir.Func.name b.Ir.Func.name)
        fn_list
    else fn_list
  in
  let mfuncs = List.map Isel.select ordered in
  let layout_fn =
    match options.layout with
    | `Hot_path -> Layout.order
    | `Ext_tsp -> Layout.order_ext_tsp
  in
  let layouts = List.map (layout_fn ~split:true) ordered in
  let insts : pending_inst Vec.t = Vec.create () in
  let patches : (int * patch) list ref = ref [] in
  let probes : pending_probe list ref = ref [] in
  let block_addr : (int * Ir.Types.label, int) Hashtbl.t = Hashtbl.create 256 in
  let cursor = ref base_addr in
  let align16 () = cursor := (!cursor + 15) land lnot 15 in
  let push_inst ?(cs = 0) fidx dloc op =
    let size = Mach.size_of op in
    Vec.push insts
      { p_addr = !cursor; p_size = size; p_op = op; p_dloc = dloc; p_func = fidx; p_cs = cs };
    cursor := !cursor + size;
    Vec.length insts - 1
  in
  (* Emit one block; [next] is the fallthrough candidate within the same
     emission sequence. *)
  let emit_block fidx (mf : Isel.mfunc) (label : Ir.Types.label) ~(next : Ir.Types.label option) =
    let f = mf.Isel.mf_func in
    let mb = Hashtbl.find mf.Isel.mf_blocks label in
    Hashtbl.replace block_addr (fidx, label) !cursor;
    let start_idx = Vec.length insts in
    Vec.iter (fun (op, dloc, cs) -> ignore (push_inst ~cs fidx dloc op)) mb.Isel.mb_insts;
    let n_body = Vec.length mb.Isel.mb_insts in
    let b = Ir.Func.block f label in
    (* Terminator encoding depends on the fallthrough. *)
    (match mb.Isel.mb_term with
    | Isel.TP_done -> ()
    | Isel.TP_ret op -> ignore (push_inst fidx Ir.Dloc.none (Mach.MRet op))
    | Isel.TP_jmp -> (
        match b.Ir.Block.term with
        | I.Jmp t when Some t = next -> ()
        | I.Jmp t ->
            let idx = push_inst fidx Ir.Dloc.none (Mach.MJmp 0) in
            patches := (idx, PJmp (fidx, t)) :: !patches
        | I.Unreachable -> ignore (push_inst fidx Ir.Dloc.none (Mach.MRet (Mach.OImm 0L)))
        | _ -> assert false)
    | Isel.TP_br c -> (
        match b.Ir.Block.term with
        | I.Br (_, tbb, fbb) ->
            if Some fbb = next then begin
              let idx = push_inst fidx Ir.Dloc.none (Mach.MJcc (c, true, 0)) in
              patches := (idx, PJcc (fidx, tbb)) :: !patches
            end
            else if Some tbb = next then begin
              let idx = push_inst fidx Ir.Dloc.none (Mach.MJcc (c, false, 0)) in
              patches := (idx, PJcc (fidx, fbb)) :: !patches
            end
            else begin
              let idx = push_inst fidx Ir.Dloc.none (Mach.MJcc (c, true, 0)) in
              patches := (idx, PJcc (fidx, tbb)) :: !patches;
              let idx2 = push_inst fidx Ir.Dloc.none (Mach.MJmp 0) in
              patches := (idx2, PJmp (fidx, fbb)) :: !patches
            end
        | _ -> assert false)
    | Isel.TP_switch mo -> (
        match b.Ir.Block.term with
        | I.Switch (_, cases, default) ->
            let idx =
              push_inst fidx Ir.Dloc.none
                (Mach.MSwitch (mo, List.map (fun (k, _) -> (k, 0)) cases, 0))
            in
            patches := (idx, PSwitch (fidx, cases, default)) :: !patches
        | _ -> assert false));
    let total = Vec.length insts - start_idx in
    (* Probes need an in-block anchor; pad with a nop if the block emitted
       nothing (pure fallthrough). *)
    let total =
      if total = 0 && mb.Isel.mb_probes <> [] then begin
        ignore (push_inst fidx Ir.Dloc.none Mach.MNop);
        1
      end
      else total
    in
    List.iter
      (fun (probe, dloc, anchor_idx) ->
        let rel = min anchor_idx (total - 1) in
        let rel = max rel 0 in
        ignore n_body;
        probes := { pp_probe = probe; pp_dloc = dloc; pp_global_idx = start_idx + rel } :: !probes)
      mb.Isel.mb_probes
  in
  (* Hot parts. *)
  let hot_ranges =
    List.mapi
      (fun fidx (mf, (lay : Layout.t)) ->
        align16 ();
        let start = !cursor in
        let rec go = function
          | [] -> ()
          | [ last ] -> emit_block fidx mf last ~next:None
          | x :: (y :: _ as rest) ->
              emit_block fidx mf x ~next:(Some y);
              go rest
        in
        go lay.Layout.hot;
        (start, !cursor))
      (List.combine mfuncs layouts)
  in
  (* Cold parts, all placed after the hot text. *)
  let cold_ranges =
    List.mapi
      (fun fidx (mf, (lay : Layout.t)) ->
        if lay.Layout.cold = [] then None
        else begin
          align16 ();
          let start = !cursor in
          let rec go = function
            | [] -> ()
            | [ last ] -> emit_block fidx mf last ~next:None
            | x :: (y :: _ as rest) ->
                emit_block fidx mf x ~next:(Some y);
                go rest
          in
          go lay.Layout.cold;
          Some (start, !cursor)
        end)
      (List.combine mfuncs layouts)
  in
  let text_end = !cursor in
  (* Patch branch targets. *)
  List.iter
    (fun (idx, patch) ->
      let inst = Vec.get insts idx in
      let addr_of fidx l =
        match Hashtbl.find_opt block_addr (fidx, l) with
        | Some a -> a
        | None -> invalid_arg (Printf.sprintf "emit: unplaced block bb%d" l)
      in
      match (patch, inst.p_op) with
      | PJmp (fidx, l), Mach.MJmp _ -> inst.p_op <- Mach.MJmp (addr_of fidx l)
      | PJcc (fidx, l), Mach.MJcc (c, pol, _) -> inst.p_op <- Mach.MJcc (c, pol, addr_of fidx l)
      | PSwitch (fidx, cases, default), Mach.MSwitch (mo, _, _) ->
          inst.p_op <-
            Mach.MSwitch
              (mo, List.map (fun (k, l) -> (k, addr_of fidx l)) cases, addr_of fidx default)
      | _ -> assert false)
    !patches;
  (* Finalize instruction array and metadata. *)
  let inst_arr =
    Array.init (Vec.length insts) (fun i ->
        let pi = Vec.get insts i in
        {
          Mach.i_addr = pi.p_addr;
          i_size = pi.p_size;
          i_op = pi.p_op;
          i_dloc = pi.p_dloc;
          i_func = pi.p_func;
          i_cs_probe = pi.p_cs;
        })
  in
  let probe_arr =
    !probes
    |> List.map (fun pp ->
           {
             Mach.pr_func = pp.pp_probe.I.p_func;
             pr_id = pp.pp_probe.I.p_id;
             pr_kind = pp.pp_probe.I.p_kind;
             pr_addr = inst_arr.(pp.pp_global_idx).Mach.i_addr;
             pr_chain = pp.pp_dloc.Ir.Dloc.inlined_at;
           })
    |> List.sort (fun a b ->
           let c = compare a.Mach.pr_addr b.Mach.pr_addr in
           if c <> 0 then c else compare a.Mach.pr_id b.Mach.pr_id)
    |> Array.of_list
  in
  let n_counters =
    Array.fold_left
      (fun acc inst ->
        match inst.Mach.i_op with Mach.MInc c -> max acc (c + 1) | _ -> acc)
      0 inst_arr
  in
  let funcs =
    Array.of_list
      (List.mapi
         (fun fidx mf ->
           let f = mf.Isel.mf_func in
           let start, end_ = List.nth hot_ranges fidx in
           let param_locs =
             Array.of_list
               (List.map (fun r -> mf.Isel.mf_ra.Regalloc.loc_of.(r)) f.Ir.Func.params)
           in
           {
             Mach.bf_name = f.Ir.Func.name;
             bf_guid = f.Ir.Func.guid;
             bf_start = start;
             bf_end = end_;
             bf_cold = List.nth cold_ranges fidx;
             bf_param_locs = param_locs;
             bf_nslots = mf.Isel.mf_ra.Regalloc.nslots;
             bf_checksum = f.Ir.Func.checksum;
           })
         mfuncs)
  in
  (* Size accounting for Fig. 9: a plausible byte encoding of each section. *)
  let debug_size =
    Array.fold_left
      (fun acc inst -> acc + 4 + (6 * List.length inst.Mach.i_dloc.Ir.Dloc.inlined_at))
      0 inst_arr
  in
  let probe_meta_size =
    if Array.length probe_arr = 0 then 0
    else
      (16 * Array.length funcs)
      + Array.fold_left
          (fun acc pr -> acc + 18 + (10 * List.length pr.Mach.pr_chain))
          0 probe_arr
  in
  {
    Mach.funcs;
    insts = inst_arr;
    probes = probe_arr;
    n_counters;
    globals = p.Ir.Program.globals;
    text_size = text_end - base_addr;
    debug_size;
    probe_meta_size;
  }
