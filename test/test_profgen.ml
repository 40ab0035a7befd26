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

(* A sampled run of [bin], aggregated online as the PMU flushes. *)
let aggregate bin args =
  let agg = Pg.Ranges.create () in
  ignore
    (Vm.Machine.run
       ~pmu:(Some { Vm.Machine.default_pmu with sample_period = 101 })
       ~sink:(Pg.Ranges.sink agg) bin ~entry:"main" ~args);
  agg

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
      if Cg.Mach.inst_at bin lo = None then Alcotest.fail "range start unmapped")
    agg

let test_addr_totals_cover_hot_loop () =
  let bin, agg = profile_run loop_src [ 4000L ] in
  let totals = Pg.Ranges.addr_totals bin agg in
  let hottest =
    let m = ref 0 in
    Csspgo_support.Itab.iter (fun _ _ _ c -> m := max c !m) totals;
    !m
  in
  Alcotest.(check bool) "hot addresses found" true (hottest > 100)

let test_dwarf_correlation_produces_lines () =
  let bin, agg = profile_run loop_src [ 4000L ] in
  let prof = Pg.Dwarf_corr.correlate_agg bin agg in
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
  let prof = Pg.Dwarf_corr.correlate_agg bin (aggregate bin [ 200L ]) in
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

let suite =
  ( "profgen",
    [
      Alcotest.test_case "aggregate shapes" `Quick test_aggregate_shapes;
      Alcotest.test_case "addr totals" `Quick test_addr_totals_cover_hot_loop;
      Alcotest.test_case "dwarf lines" `Quick test_dwarf_correlation_produces_lines;
      Alcotest.test_case "dwarf call targets" `Quick test_dwarf_call_targets;
    ] )
