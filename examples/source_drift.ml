(* Source drift (§III.A): what happens when the profiled source and the
   built source differ slightly.

   We profile version 1 of a service, then build:
     (a) version 1 with comments added (no CFG change), and
     (b) version 2 with an extra branch in the hot helper (CFG change),
   using the version-1 profile for both.

   AutoFDO correlates by line offsets, so edit (a) silently shifts every
   following line's counts and edit (b) quietly mis-annotates. CSSPGO's
   probe checksums accept (a) untouched and *reject* the stale function in
   (b), falling back to unannotated (safe) rather than wrong. *)

module F = Csspgo_frontend
module Ir = Csspgo_ir
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module Core = Csspgo_core

let v1 = {|
global data[2048];

fn score(x, w) {
  let acc = 0;
  let i = 0;
  while (i < 64) {
    acc = acc + data[x + i] * w;
    i = i + 1;
  }
  if (acc % 4 == 0) { acc = acc + x * 3 - i + (acc >> 5); } else { acc = acc + 1; }
  return acc;
}

fn main(n) {
  let t = 0;
  let k = 0;
  while (k < n) {
    t = t + score(k % 1024, k % 7 + 1);
    k = k + 1;
  }
  return t;
}
|}

(* (a) comments inserted mid-function: lines shift, CFG identical *)
let v1_comments = {|
global data[2048];

fn score(x, w) {
  // accumulate weighted window
  // (hot loop)
  let acc = 0;
  let i = 0;
  while (i < 64) {
    acc = acc + data[x + i] * w;
    i = i + 1;
  }
  if (acc % 4 == 0) { acc = acc + x * 3 - i + (acc >> 5); } else { acc = acc + 1; }
  return acc;
}

fn main(n) {
  let t = 0;
  let k = 0;
  while (k < n) {
    t = t + score(k % 1024, k % 7 + 1);
    k = k + 1;
  }
  return t;
}
|}

(* (b) a real change: early-exit branch added to score *)
let v2 = {|
global data[2048];

fn score(x, w) {
  if (w == 0) { return 0; }
  let acc = 0;
  let i = 0;
  while (i < 64) {
    acc = acc + data[x + i] * w;
    i = i + 1;
  }
  if (acc % 4 == 0) { acc = acc + x * 3 - i + (acc >> 5); } else { acc = acc + 1; }
  return acc;
}

fn main(n) {
  let t = 0;
  let k = 0;
  while (k < n) {
    t = t + score(k % 1024, k % 7 + 1);
    k = k + 1;
  }
  return t;
}
|}

let globals () =
  let rng = Csspgo_support.Rng.create 5L in
  [ ("data", Csspgo_workloads.Inputs.array rng 2048 ~max:1000) ]

let profile_v1 () =
  (* Sample v1 once, producing both a line profile and a probe profile. *)
  let correlate ~probes shape =
    let p = F.Lower.compile v1 in
    if probes then Core.Pseudo_probe.insert p;
    let symbols = Core.Correlate.symbols p in
    Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
    let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
    let log = Vm.Sample_log.create () in
    ignore
      (Vm.Machine.run
         ~pmu:(Some { Vm.Machine.default_pmu with sample_period = 503 })
         ~sink:(Vm.Sample_log.sink log) ~globals_init:(globals ()) bin ~entry:"main"
         ~args:[ 4000L ]);
    (Core.Correlate.run ~jobs:1 ~missing_frames:false ~trim:0L shape
       (Core.Correlate.target symbols bin) (Core.Correlate.Log log))
      .Core.Correlate.profile
  in
  let line_prof = correlate ~probes:false Core.Correlate.Lines in
  let probe_prof = correlate ~probes:true Core.Correlate.Probes in
  match (line_prof, probe_prof) with
  | Csspgo_profile.Text_io.Line_prof lp, Csspgo_profile.Text_io.Probe_prof pp -> (lp, pp)
  | _ -> assert false

let eval_with src annotate =
  let p = F.Lower.compile src in
  annotate p;
  Opt.Pass.optimize ~config:Opt.Config.o2 p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  (Vm.Machine.run ~pmu:None ~globals_init:(globals ()) bin ~entry:"main" ~args:[ 5000L ])
    .Vm.Machine.cycles

let () =
  print_endline "== source drift: stale profiles, line offsets, and checksums ==\n";
  let line_prof, probe_prof = profile_v1 () in
  let autofdo src = eval_with src (fun p -> Core.Annotate.lines line_prof p) in
  let csspgo src =
    let stales = ref [] in
    let c =
      eval_with src (fun p ->
          Core.Pseudo_probe.insert p;
          stales := Core.Annotate.probes probe_prof p)
    in
    (c, !stales)
  in
  let af_fresh = autofdo v1 in
  let af_comment = autofdo v1_comments in
  let af_v2 = autofdo v2 in
  Printf.printf "AutoFDO (line-offset correlation), profile from v1:\n";
  Printf.printf "  build v1 (fresh)      %10Ld cycles\n" af_fresh;
  Printf.printf "  build v1 + comments   %10Ld cycles  (%+.2f%% — lines shifted)\n" af_comment
    ((Int64.to_float af_comment -. Int64.to_float af_fresh)
    /. Int64.to_float af_fresh *. 100.);
  Printf.printf "  build v2 (CFG change) %10Ld cycles  (%+.2f%% — silently mis-annotated)\n"
    af_v2
    ((Int64.to_float af_v2 -. Int64.to_float af_fresh) /. Int64.to_float af_fresh *. 100.);
  let cs_fresh, s1 = csspgo v1 in
  let cs_comment, s2 = csspgo v1_comments in
  let cs_v2, s3 = csspgo v2 in
  Printf.printf "\nCSSPGO (probe correlation + CFG checksums), profile from v1:\n";
  Printf.printf "  build v1 (fresh)      %10Ld cycles  (%d stale)\n" cs_fresh (List.length s1);
  Printf.printf "  build v1 + comments   %10Ld cycles  (%d stale — checksum unchanged)\n"
    cs_comment (List.length s2);
  Printf.printf "  build v2 (CFG change) %10Ld cycles  (%d stale: %s — profile rejected,\n"
    cs_v2 (List.length s3)
    (String.concat "," (List.map (fun s -> s.Core.Annotate.sf_name) s3));
  Printf.printf "%26s function falls back to safe static heuristics)\n" ""
