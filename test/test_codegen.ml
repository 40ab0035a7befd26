(* Register allocation, layout, emission. *)
module F = Csspgo_frontend
module Ir = Csspgo_ir
module I = Ir.Instr
module Cg = Csspgo_codegen
module Mach = Cg.Mach
module Opt = Csspgo_opt


let compile_o2 src =
  let p = F.Lower.compile src in
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  p

let test_regalloc_valid () =
  let p = compile_o2 Csspgo_workloads.Suite.vecop_example in
  Ir.Program.iter_funcs
    (fun f ->
      let ra = Cg.Regalloc.allocate f in
      (* Every vreg gets a location; registers stay in the allocatable set;
         spill slots are within nslots. *)
      Array.iter
        (function
          | Mach.LReg r ->
              if r < 0 || r >= Mach.n_alloc then Alcotest.fail "register out of range"
          | Mach.LSpill s ->
              if s < 0 || s >= max ra.Cg.Regalloc.nslots 1 then
                Alcotest.fail "slot out of range")
        ra.Cg.Regalloc.loc_of)
    p

let test_regalloc_interference () =
  (* Two values live simultaneously must not share a register. *)
  let p =
    F.Lower.compile
      "fn main(a, b) { let x = a + 1; let y = b + 2; let z = x * y; return z + x + y; }"
  in
  let f = Ir.Program.func p "main" in
  let ra = Cg.Regalloc.allocate f in
  (* Find the vregs for x and y via the defs of the adds feeding the mul:
     simpler — just check params (live together at entry) differ. *)
  (match (ra.Cg.Regalloc.loc_of.(0), ra.Cg.Regalloc.loc_of.(1)) with
  | Mach.LReg r0, Mach.LReg r1 ->
      Alcotest.(check bool) "params in distinct regs" true (r0 <> r1)
  | _ -> ())

let test_layout_entry_first_and_complete () =
  let p = compile_o2 Csspgo_workloads.Suite.vecop_example in
  Ir.Program.iter_funcs
    (fun f ->
      let lay = Cg.Layout.order ~split:true f in
      (match lay.Cg.Layout.hot with
      | first :: _ ->
          Alcotest.(check int) "entry first" f.Ir.Func.entry first
      | [] -> Alcotest.fail "empty layout");
      let reach = Ir.Cfg.reachable f in
      let placed = lay.Cg.Layout.hot @ lay.Cg.Layout.cold in
      Alcotest.(check int)
        (Printf.sprintf "%s: all reachable blocks placed" f.Ir.Func.name)
        (Hashtbl.length reach) (List.length placed);
      Alcotest.(check int) "no duplicates" (List.length placed)
        (List.length (List.sort_uniq compare placed)))
    p

let test_layout_profile_improves_score () =
  (* With a profile, the layout's Ext-TSP score should be at least that of
     the source-order layout. *)
  let w = List.hd Csspgo_workloads.Suite.server_workloads in
  let o = Csspgo_core.Driver.run_variant Csspgo_core.Driver.Csspgo_probe_only w in
  let p = o.Csspgo_core.Driver.o_annotated in
  Ir.Program.iter_funcs
    (fun f ->
      if f.Ir.Func.annotated && Ir.Func.n_blocks f > 2 then begin
        let lay = Cg.Layout.order ~split:false f in
        let dfs = Cg.Layout.ext_tsp_score f lay.Cg.Layout.hot in
        let src_order = Cg.Layout.ext_tsp_score f (Ir.Func.labels f) in
        if dfs +. 1e-6 < src_order then
          Alcotest.failf "%s: layout score %.1f below source order %.1f" f.Ir.Func.name dfs
            src_order
      end)
    p

let test_ext_tsp_layout () =
  (* The greedy Ext-TSP order must score at least as well as the DFS order
     on annotated functions, and place every block exactly once. *)
  let w = List.hd Csspgo_workloads.Suite.server_workloads in
  let o = Csspgo_core.Driver.run_variant Csspgo_core.Driver.Csspgo_probe_only w in
  let p = o.Csspgo_core.Driver.o_annotated in
  Ir.Program.iter_funcs
    (fun f ->
      let dfs = Cg.Layout.order ~split:false f in
      let tsp = Cg.Layout.order_ext_tsp ~split:false f in
      Alcotest.(check int)
        (f.Ir.Func.name ^ ": same block count")
        (List.length dfs.Cg.Layout.hot)
        (List.length tsp.Cg.Layout.hot);
      Alcotest.(check int)
        (f.Ir.Func.name ^ ": no duplicates")
        (List.length tsp.Cg.Layout.hot)
        (List.length (List.sort_uniq compare tsp.Cg.Layout.hot));
      (match tsp.Cg.Layout.hot with
      | first :: _ -> Alcotest.(check int) "entry first" f.Ir.Func.entry first
      | [] -> ());
      if f.Ir.Func.annotated then begin
        let s_dfs = Cg.Layout.ext_tsp_score f dfs.Cg.Layout.hot in
        let s_tsp = Cg.Layout.ext_tsp_score f tsp.Cg.Layout.hot in
        if s_tsp +. 1e-6 < s_dfs then
          Alcotest.failf "%s: ext-tsp %.1f below dfs %.1f" f.Ir.Func.name s_tsp s_dfs
      end)
    p;
  (* Binaries built with either layout compute the same results. *)
  let src = Csspgo_workloads.Suite.vecop_example in
  let prog = compile_o2 src in
  let run opts =
    let b = Cg.Emit.emit ~options:opts prog in
    (Csspgo_vm.Machine.run ~pmu:None b ~entry:"main" ~args:[ 64L; 5L ])
      .Csspgo_vm.Machine.ret_value
  in
  Alcotest.(check int64) "semantics independent of layout"
    (run { Cg.Emit.layout = `Hot_path })
    (run { Cg.Emit.layout = `Ext_tsp })

(* Binaries the address-map checks walk: plain and probed -O2 builds,
   and a profile-guided build whose functions have cold split ranges. *)
let addr_map_inputs =
  lazy
    (let plain = compile_o2 Csspgo_workloads.Suite.vecop_example in
     let probed = F.Lower.compile Csspgo_workloads.Suite.vecop_example in
     Csspgo_core.Pseudo_probe.insert probed;
     Opt.Pass.optimize ~config:Opt.Config.o2_nopgo probed;
     let w = List.hd Csspgo_workloads.Suite.server_workloads in
     let split = Csspgo_core.Driver.run_variant Csspgo_core.Driver.Csspgo_probe_only w in
     let emit p = Cg.Emit.emit ~options:Cg.Emit.default_options p in
     let b = split.Csspgo_core.Driver.o_binary in
     if not (Array.exists (fun f -> f.Mach.bf_cold <> None) b.Mach.funcs) then
       Alcotest.fail "no cold split range to check";
     [ emit plain; emit probed; b ])

let test_emit_addr_map () =
  List.iter
    (fun (b : Mach.binary) ->
      (* Addresses strictly increase and the index maps back. *)
      Array.iteri
        (fun i (inst : Mach.inst) ->
          if i > 0 then begin
            let prev = b.Mach.insts.(i - 1) in
            if inst.Mach.i_addr < prev.Mach.i_addr + prev.Mach.i_size then
              Alcotest.fail "overlapping instructions"
          end;
          if Mach.idx_of_addr b inst.Mach.i_addr <> i then Alcotest.fail "idx_of_addr inconsistent")
        b.Mach.insts;
      (* Every function range contains its instructions, and starts at one. *)
      let ix = Csspgo_profgen.Bindex.create b in
      let guid fi = Some b.Mach.funcs.(fi).Mach.bf_guid in
      Array.iter
        (fun (inst : Mach.inst) ->
          if Csspgo_profgen.Bindex.func_guid_of_addr ix inst.Mach.i_addr <> guid inst.Mach.i_func
          then Alcotest.fail "func_guid_of_addr mismatch")
        b.Mach.insts;
      Array.iteri
        (fun fi (f : Mach.bfunc) ->
          match Mach.idx_of_addr b f.Mach.bf_start with
          | -1 -> Alcotest.failf "%s starts at no instruction" f.Mach.bf_name
          | i ->
              if b.Mach.insts.(i).Mach.i_func <> fi then Alcotest.fail "entry in another function";
              if Csspgo_profgen.Bindex.entry_func ix f.Mach.bf_start <> fi then
                Alcotest.fail "entry_func mismatch")
        b.Mach.funcs;
      (* Every other byte, mid-instruction or padding, maps to no
         instruction; a byte in a range maps to its function, padding to
         none. *)
      let owner = Hashtbl.create 64 in
      Array.iteri
        (fun fi (f : Mach.bfunc) ->
          let mark (s, e) = for a = s to e - 1 do Hashtbl.replace owner a fi done in
          mark (f.Mach.bf_start, f.Mach.bf_end);
          Option.iter mark f.Mach.bf_cold)
        b.Mach.funcs;
      let last = b.Mach.insts.(Array.length b.Mach.insts - 1) in
      for a = b.Mach.insts.(0).Mach.i_addr - 4 to last.Mach.i_addr + last.Mach.i_size + 4 do
        let i = Mach.idx_of_addr b a in
        if i >= 0 && b.Mach.insts.(i).Mach.i_addr <> a then Alcotest.fail "idx_of_addr off";
        if i < 0 && Csspgo_profgen.Bindex.idx_of_addr ix a >= 0 then
          Alcotest.failf "byte 0x%x maps to an instruction" a;
        if i < 0 && Csspgo_profgen.Bindex.entry_func ix a >= 0 then
          Alcotest.failf "byte 0x%x is an entry" a;
        let want = Option.bind (Hashtbl.find_opt owner a) guid in
        if Csspgo_profgen.Bindex.func_guid_of_addr ix a <> want then
          Alcotest.failf "byte 0x%x in the wrong function" a
      done)
    (Lazy.force addr_map_inputs)

let test_emit_probe_anchors () =
  let p = F.Lower.compile Csspgo_workloads.Suite.vecop_example in
  Csspgo_core.Pseudo_probe.insert p;
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  let b = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  Alcotest.(check bool) "probes materialized" true (Array.length b.Mach.probes > 0);
  Array.iter
    (fun (pr : Mach.probe_rec) ->
      if Mach.idx_of_addr b pr.Mach.pr_addr < 0 then
        Alcotest.fail "probe anchored at unmapped address")
    b.Mach.probes;
  (* sorted by address *)
  Array.iteri
    (fun i pr ->
      if i > 0 && pr.Mach.pr_addr < b.Mach.probes.(i - 1).Mach.pr_addr then
        Alcotest.fail "probe records unsorted")
    b.Mach.probes;
  Alcotest.(check bool) "probe metadata sized" true (b.Mach.probe_meta_size > 0)

let test_emit_branch_targets_resolve () =
  let p = compile_o2 Csspgo_workloads.Suite.vecop_example in
  let b = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  Array.iter
    (fun (inst : Mach.inst) ->
      let check_target a =
        if Mach.idx_of_addr b a < 0 then Alcotest.failf "dangling target 0x%x" a
      in
      match inst.Mach.i_op with
      | Mach.MJmp a -> check_target a
      | Mach.MJcc (_, _, a) -> check_target a
      | Mach.MSwitch (_, cases, d) ->
          List.iter (fun (_, a) -> check_target a) cases;
          check_target d
      | _ -> ())
    b.Mach.insts

let test_cold_split_ranges () =
  (* Build with an annotated profile that has provably cold code. *)
  let w = List.hd Csspgo_workloads.Suite.server_workloads in
  let o = Csspgo_core.Driver.run_variant Csspgo_core.Driver.Csspgo_probe_only w in
  let b = o.Csspgo_core.Driver.o_binary in
  (* Cold ranges never overlap hot ranges and sit after the last hot one. *)
  let max_hot = Array.fold_left (fun acc f -> max acc f.Mach.bf_end) 0 b.Mach.funcs in
  Array.iter
    (fun (f : Mach.bfunc) ->
      match f.Mach.bf_cold with
      | Some (s, e) ->
          if s < max_hot || e <= s then Alcotest.fail "cold range misplaced"
      | None -> ())
    b.Mach.funcs

(* Tail-call elimination: [outer] returns the result of its call, so the
   call is emitted as [MTail_call]. Inlining is off so the call survives
   the optimizer; without it the check would have nothing to look at. *)
let test_tce_emits_tail_call () =
  let p =
    F.Lower.compile
      "fn helper(x) { let s = 0; let i = 0; while (i < x) { s = s + i * 3; i = i + 1; } return s; }\nfn outer(x) { return helper(x + 1); }\nfn main(a) { return outer(a) + 1; }"
  in
  Opt.Pass.optimize
    ~config:{ Opt.Config.o2_nopgo with Opt.Config.inline_mode = Opt.Config.Inline_none }
    p;
  let b = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let tail_calls_in name =
    Array.fold_left
      (fun acc (i : Mach.inst) ->
        match i.Mach.i_op with
        | Mach.MTail_call _ when String.equal b.Mach.funcs.(i.Mach.i_func).Mach.bf_name name ->
            acc + 1
        | _ -> acc)
      0 b.Mach.insts
  in
  Alcotest.(check int) "outer's call in tail position" 1 (tail_calls_in "outer");
  Alcotest.(check int) "main's call is followed by an add" 0 (tail_calls_in "main")

let test_size_accounting () =
  let p = F.Lower.compile Csspgo_workloads.Suite.vecop_example in
  Csspgo_core.Pseudo_probe.insert p;
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  let b = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let sum_sizes = Array.fold_left (fun acc i -> acc + i.Mach.i_size) 0 b.Mach.insts in
  Alcotest.(check bool) "text >= instruction bytes (alignment padding)" true
    (b.Mach.text_size >= sum_sizes);
  Alcotest.(check bool) "debug info non-empty" true (b.Mach.debug_size > 0)

let suite =
  ( "codegen",
    [
      Alcotest.test_case "regalloc valid" `Quick test_regalloc_valid;
      Alcotest.test_case "regalloc interference" `Quick test_regalloc_interference;
      Alcotest.test_case "layout complete" `Quick test_layout_entry_first_and_complete;
      Alcotest.test_case "layout profile score" `Slow test_layout_profile_improves_score;
      Alcotest.test_case "ext-tsp layout" `Slow test_ext_tsp_layout;
      Alcotest.test_case "emit addr map" `Quick test_emit_addr_map;
      Alcotest.test_case "emit probe anchors" `Quick test_emit_probe_anchors;
      Alcotest.test_case "branch targets resolve" `Quick test_emit_branch_targets_resolve;
      Alcotest.test_case "cold split ranges" `Slow test_cold_split_ranges;
      Alcotest.test_case "tail call emitted" `Quick test_tce_emits_tail_call;
      Alcotest.test_case "size accounting" `Quick test_size_accounting;
    ] )
