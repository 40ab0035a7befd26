(* Sample aggregation and DWARF correlation. *)
module F = Csspgo_frontend
module Ir = Csspgo_ir
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module Pg = Csspgo_profgen
module P = Csspgo_profile

let loop_src =
  "fn main(n) { let s = 0; let i = 0; while (i < n) { s = s + i * 3; i = i + 1; } return s; }"

(* A sampled run of [bin], recorded and then aggregated from the log. *)
let aggregate bin args =
  let log = Vm.Sample_log.create () in
  ignore
    (Vm.Machine.run
       ~pmu:(Some { Vm.Machine.default_pmu with sample_period = 101 })
       ~sink:(Vm.Sample_log.sink log) bin ~entry:"main" ~args);
  let agg = Pg.Ranges.create () in
  Vm.Sample_log.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
      Pg.Ranges.feed agg ~lbr ~lbr_len);
  agg

let line_profile bin agg =
  Pg.Dwarf_corr.correlate_agg ~name_of:(fun _ -> None) ~index:(Pg.Bindex.create bin) bin agg

let profile_run src args =
  let p = F.Lower.compile src in
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  (bin, aggregate bin args)

let test_aggregate_shapes () =
  let bin, agg = profile_run loop_src [ 4000L ] in
  let count iter = let n = ref 0 in iter (fun _ _ _ -> incr n) agg; !n in
  Alcotest.(check bool) "ranges found" true (count Pg.Ranges.iter_ranges > 0);
  Alcotest.(check bool) "branches found" true (count Pg.Ranges.iter_branches > 0);
  (* All range endpoints map into the text section. *)
  Pg.Ranges.iter_ranges
    (fun lo hi _ ->
      if hi < lo then Alcotest.fail "inverted range";
      if Cg.Mach.idx_of_addr bin lo < 0 then Alcotest.fail "range start unmapped")
    agg

let test_addr_totals_cover_hot_loop () =
  let bin, agg = profile_run loop_src [ 4000L ] in
  let totals = Pg.Ranges.addr_totals ~index:(Pg.Bindex.create bin) agg in
  let hottest =
    let m = ref 0 in
    Csspgo_support.Itab.iter (fun _ _ _ c -> m := max c !m) totals;
    !m
  in
  Alcotest.(check bool) "hot addresses found" true (hottest > 100)

let test_dwarf_correlation_produces_lines () =
  let bin, agg = profile_run loop_src [ 4000L ] in
  let prof = line_profile bin agg in
  let fe = Option.get (P.Line_profile.get prof (Ir.Guid.of_name "main")) in
  Alcotest.(check bool) "line entries" true (Hashtbl.length fe.P.Line_profile.fe_lines > 0);
  (* The loop body line (function-relative) must dominate. *)
  let hottest =
    Hashtbl.fold (fun _ c acc -> Int64.max c acc) fe.P.Line_profile.fe_lines 0L
  in
  Alcotest.(check bool) "loop line hot" true (Int64.compare hottest 500L > 0)

let test_dwarf_call_targets () =
  let src =
    "fn helper(x) { let s = 0; let i = 0; while (i < 50) { s = s + x; i = i + 1; } return s; }\nfn main(n) { let t = 0; let k = 0; while (k < n) { t = t + helper(k); k = k + 1; } return t; }"
  in
  let p = F.Lower.compile src in
  (* keep the call *)
  Opt.Pass.optimize ~config:{ Opt.Config.o2_nopgo with inline_mode = Opt.Config.Inline_none } p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let prof = line_profile bin (aggregate bin [ 200L ]) in
  let fe = Option.get (P.Line_profile.get prof (Ir.Guid.of_name "main")) in
  let has_target =
    Hashtbl.fold
      (fun _ tbl acc -> acc || Hashtbl.mem tbl (Ir.Guid.of_name "helper"))
      fe.P.Line_profile.fe_calls false
  in
  Alcotest.(check bool) "helper is a recorded call target" true has_target;
  (* Head counts: helper was entered many times. *)
  let hfe = Option.get (P.Line_profile.get prof (Ir.Guid.of_name "helper")) in
  Alcotest.(check bool) "helper head count" true
    (Int64.compare hfe.P.Line_profile.fe_head 10L > 0)

(* A faulty collector can ship records whose addresses lie past the
   text, below it or inside an instruction, and ranges that run
   backwards. Appended around a clean adfinder log and shipped as a CSLG
   blob, they must correlate in every shape without raising and add
   nothing: the profiles, and for contexts the flat baseline, equal the
   clean log's. *)
let test_faulty_records_add_nothing () =
  let module D = Csspgo_core.Driver in
  let module Fl = Csspgo_fleet in
  let module SL = Vm.Sample_log in
  let options = D.default_options and w = Csspgo_workloads.Suite.adfinder in
  List.iter
    (fun shape ->
      let b = Fl.Build.profiling_build ~options ~shape ~source:w.D.w_source in
      let bin = b.Fl.Build.vb_bin in
      let insts = Array.to_list bin.Cg.Mach.insts in
      let base = (List.hd insts).Cg.Mach.i_addr in
      if base <= 4 then Alcotest.fail "text starts too low for a low address";
      let last = List.nth insts (List.length insts - 1) in
      let past = last.Cg.Mach.i_addr + last.Cg.Mach.i_size + 64 in
      let wide = List.find (fun (i : Cg.Mach.inst) -> i.Cg.Mach.i_size > 1) insts in
      let mid = wide.Cg.Mach.i_addr + 1 in
      (* The inverted range's ends: no function entry (a head count) and
         no tail call (a missing-frame edge). *)
      let starts = Array.map (fun f -> f.Cg.Mach.bf_start) bin.Cg.Mach.funcs in
      let plain =
        List.filter
          (fun (i : Cg.Mach.inst) ->
            (not (Array.mem i.Cg.Mach.i_addr starts))
            && match i.Cg.Mach.i_op with Cg.Mach.MTail_call _ -> false | _ -> true)
          insts
      in
      let lo = (List.hd plain).Cg.Mach.i_addr
      and last_plain = List.nth plain (List.length plain - 1) in
      let hi = last_plain.Cg.Mach.i_addr in
      (* A mid-instruction leaf in [hi]'s own function passes Algorithm 1's
         synchronization check, so the range [2, hi] reaches the trie walk. *)
      let mid2 =
        (List.find
           (fun (i : Cg.Mach.inst) ->
             i.Cg.Mach.i_size > 1 && i.Cg.Mach.i_func = last_plain.Cg.Mach.i_func)
           insts)
          .Cg.Mach.i_addr + 1
      in
      let junk = SL.create () in
      List.iter
        (fun (lbr, leaf) ->
          SL.add junk ~lbr:(Array.of_list lbr) ~lbr_len:(List.length lbr / 2)
            ~stack:[| leaf |] ~stack_len:1)
        [
          ([ past; past + 8; past + 16; past + 24 ], past + 30);
          ([ 1; 2; 3; 4 ], 3);
          ([ mid; mid; mid; mid ], mid);
          ([ lo; hi; lo; hi ], past);
          ([ 1; 2; hi; past ], past);
          ([ 1; 2; hi; mid2 ], mid2);
        ];
      let clean = Fl.Build.record ~options b w in
      let faulty =
        match SL.decode (SL.encode (SL.concat [ junk; clean; junk ])) with
        | Ok log -> log
        | Error e -> Alcotest.fail (Csspgo_support.Wire.error_to_string e)
      in
      Alcotest.(check int) "junk shipped" (SL.n_samples clean + 12) (SL.n_samples faulty);
      let text log =
        let p, flat = Fl.Build.correlate ~options ~shape b log in
        ( P.Text_io.to_string p,
          Option.map (fun f -> P.Text_io.to_string (P.Text_io.Probe_prof f)) flat )
      in
      let name = Fl.Build.shape_name shape in
      let p, flat = text clean and p', flat' = text faulty in
      Alcotest.(check string) (name ^ " profile") p p';
      Alcotest.(check (option string)) (name ^ " flat baseline") flat flat')
    [ Fl.Build.Lines; Fl.Build.Probes; Fl.Build.Ctx ]

(* An index built on another binary, even an identical build, is refused
   rather than read against the wrong text. *)
let test_index_of_another_binary () =
  let bin, agg = profile_run loop_src [ 400L ] in
  let other, _ = profile_run loop_src [ 400L ] in
  let index = Pg.Bindex.create other in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a mismatched index" name
    | exception Invalid_argument _ -> ()
  in
  raises "Dwarf_corr" (fun () ->
      ignore (Pg.Dwarf_corr.correlate_agg ~name_of:(fun _ -> None) ~index bin agg));
  raises "Probe_corr" (fun () ->
      ignore
        (Csspgo_core.Probe_corr.correlate_agg ~name_of:(fun _ -> None) ~index
           ~checksum_of:(fun _ -> 0L) bin agg))

let suite =
  ( "profgen",
    [
      Alcotest.test_case "aggregate shapes" `Quick test_aggregate_shapes;
      Alcotest.test_case "addr totals" `Quick test_addr_totals_cover_hot_loop;
      Alcotest.test_case "dwarf lines" `Quick test_dwarf_correlation_produces_lines;
      Alcotest.test_case "dwarf call targets" `Quick test_dwarf_call_targets;
      Alcotest.test_case "faulty records add nothing" `Quick test_faulty_records_add_nothing;
      Alcotest.test_case "index of another binary" `Quick test_index_of_another_binary;
    ] )
