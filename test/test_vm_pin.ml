(* The VM pinned byte for byte. Each case renders what one run observably
   produces — the result counters, the encoded sample log, the
   instrumentation counters and value profiles — and checks its FNV-1a
   digest against the value recorded from the boxed interpreter (int64
   refs, a frame list, per-frame register arrays) that preceded the
   unboxed register file. Any change to a cycle, a counter or a sample
   byte fails here. *)
module F = Csspgo_frontend
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module M = Vm.Machine
module SL = Vm.Sample_log
module Core = Csspgo_core
module D = Core.Driver
module W = Csspgo_workloads
module Fnv = Csspgo_support.Fnv
module Label_set = Csspgo_support.Label_set

let build ?(probes = false) ?(instrument = false) ?(config = Opt.Config.o2_nopgo) src =
  let p = F.Lower.compile src in
  if probes then Core.Pseudo_probe.insert p;
  let values =
    if instrument then begin
      ignore (Core.Instrument.instrument p);
      Some (Core.Instrument.instrument_values p)
    end
    else None
  in
  Opt.Pass.optimize ~config p;
  (Cg.Emit.emit ~options:Cg.Emit.default_options p, values)

let hex s = Printf.sprintf "%016Lx" (Fnv.hash_string s)

let render_counters (r : M.result) =
  Printf.sprintf "cycles=%Ld instructions=%Ld icache=%Ld taken=%Ld mispredicts=%Ld ret=%Ld samples=%d"
    r.M.cycles r.M.instructions r.M.icache_misses r.M.taken_branches r.M.mispredicts
    r.M.ret_value r.M.n_samples

let render_instrumented (r : M.result) =
  let b = Buffer.create 256 in
  Array.iter (fun c -> Buffer.add_string b (Int64.to_string c ^ ",")) r.M.counters;
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  List.iter
    (fun (site, tbl) ->
      Printf.bprintf b "|%d:" site;
      List.iter (fun (v, n) -> Printf.bprintf b "%Ld=%Ld;" v n) (sorted tbl))
    (sorted r.M.value_profiles);
  Buffer.contents b

let pebs = { M.default_pmu with M.sample_period = 1009 }
let skid = { pebs with M.pebs = false }

let first_train (w : D.workload) =
  match w.D.w_train with spec :: _ -> spec | [] -> assert false

(* One run into a fresh sample log: the counter rendering and the log's
   CSLG bytes. *)
let logged ?labels ?debug_poison pmu bin ~entry (spec : D.run_spec) =
  let log = SL.create () in
  let r =
    M.run ~pmu:(Some pmu) ~sink:(SL.sink log) ?labels ?debug_poison
      ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args bin ~entry
  in
  (render_counters r, SL.encode log)

let suite_cases =
  List.concat_map
    (fun (w : D.workload) ->
      let bin = lazy (fst (build w.D.w_source)) in
      let spec = first_train w in
      let entry = w.D.w_entry in
      [
        ( w.D.w_name ^ " pmu off",
          fun () ->
            let r =
              M.run ~pmu:None ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args
                (Lazy.force bin) ~entry
            in
            [ ("counters", render_counters r) ] );
        ( w.D.w_name ^ " PEBS",
          fun () ->
            let counters, log = logged pebs (Lazy.force bin) ~entry spec in
            [ ("counters", counters); ("log", log) ] );
      ])
    W.Suite.all

let tail_call_src = {|
fn worker(x) { let s = 0; let i = 0; while (i < 60) { s = s + x * i; i = i + 1; } return s; }
fn springboard(x) { return worker(x + 1); }
fn main(n) {
  let t = 0;
  let k = 0;
  while (k < n) {
    t = t + springboard(k);
    k = k + 1;
  }
  return t;
}
|}

let spec args = { D.rs_args = args; rs_globals = [] }

let tail_call_bin =
  lazy
    (fst
       (build ~probes:true
          ~config:{ Opt.Config.o2_nopgo with inline_mode = Opt.Config.Inline_none }
          tail_call_src))

let other_cases =
  [
    ( "haas skid",
      fun () ->
        let w = W.Suite.haas in
        let bin, _ = build ~probes:true w.D.w_source in
        let counters, log = logged skid bin ~entry:w.D.w_entry (first_train w) in
        [ ("counters", counters); ("log", log) ] );
    ( "tail call skid",
      fun () ->
        let bin = Lazy.force tail_call_bin in
        let has_tail =
          Array.exists
            (fun (i : Cg.Mach.inst) ->
              match i.Cg.Mach.i_op with Cg.Mach.MTail_call _ -> true | _ -> false)
            bin.Cg.Mach.insts
        in
        Alcotest.(check bool) "tail call emitted" true has_tail;
        let counters, log = logged skid bin ~entry:"main" (spec [ 100L ]) in
        [ ("counters", counters); ("log", log) ] );
    ( "instrumented",
      fun () ->
        let w = W.Suite.hhvm in
        let bin, values = build ~instrument:true w.D.w_source in
        let spec = first_train w in
        let r =
          M.run ~pmu:None ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args bin
            ~entry:w.D.w_entry
        in
        (match values with
        | Some v -> Alcotest.(check bool) "value sites profiled" true (v.Core.Instrument.n_sites > 0)
        | None -> ());
        Alcotest.(check bool) "value captures" true (Hashtbl.length r.M.value_profiles > 0);
        [ ("counters", render_counters r); ("profiles", render_instrumented r) ] );
    ( "labeled",
      fun () ->
        let w = W.Suite.adfinder in
        let bin, _ = build ~probes:true w.D.w_source in
        let labels = Label_set.of_list [ ("tenant", "a"); ("endpoint", "find") ] in
        let counters, log = logged ~labels pebs bin ~entry:w.D.w_entry (first_train w) in
        (match SL.framing_version log with
        | Ok v -> Alcotest.(check int) "frames as CSLG v3" 3 v
        | Error _ -> Alcotest.fail "labeled log does not frame");
        [ ("counters", counters); ("log", log) ] );
    ( "debug poison",
      fun () ->
        let w = W.Suite.adretriever in
        let bin, _ = build ~probes:true w.D.w_source in
        let counters, log = logged ~debug_poison:true pebs bin ~entry:w.D.w_entry (first_train w) in
        [ ("counters", counters); ("log", log) ] );
  ]

(* The tail-call program sampled below and near the worst-case cost of
   one straight-line run. *)
let period_cases =
  List.concat_map
    (fun period ->
      List.map
        (fun (name, pmu) ->
          ( Printf.sprintf "tail call %s %d" name period,
            fun () ->
              let counters, log =
                logged { pmu with M.sample_period = period } (Lazy.force tail_call_bin)
                  ~entry:"main" (spec [ 100L ])
              in
              [ ("counters", counters); ("log", log) ] ))
        [ ("PEBS", pebs); ("skid", skid) ])
    [ 7; 61 ]

(* Digests recorded from the boxed interpreter, keyed by case and aspect.
   The tail-call cases at periods 7 and 61 were recorded later, from the
   interpreter that stepped every instruction on its own. *)
let pinned =
  [
    ("adranker pmu off counters", "d0a9559bd076446c");
    ("adranker PEBS counters", "e84d4eccedb53389");
    ("adranker PEBS log", "7c10874421d207e5");
    ("adretriever pmu off counters", "fb43dd24f0b76bda");
    ("adretriever PEBS counters", "6d6cd19400d0d938");
    ("adretriever PEBS log", "9eff9b7ffaac981e");
    ("adfinder pmu off counters", "cd40a9349619afe4");
    ("adfinder PEBS counters", "4d5e1be95665c240");
    ("adfinder PEBS log", "1a0a6e99715a43e6");
    ("hhvm pmu off counters", "78c7abef2737ea46");
    ("hhvm PEBS counters", "a4e77254804f3cb9");
    ("hhvm PEBS log", "058344691f88148c");
    ("haas pmu off counters", "07ac836076194a08");
    ("haas PEBS counters", "82b6a96ee371cc81");
    ("haas PEBS log", "66b5c5e1f0ec638e");
    ("clangish pmu off counters", "fd0cf5daf22ca40a");
    ("clangish PEBS counters", "c0f36e1cb6dd0336");
    ("clangish PEBS log", "f0e63810845c3b6b");
    ("haas skid counters", "82b6a96ee371cc81");
    ("haas skid log", "9d89af2a5c05d673");
    ("tail call skid counters", "e27392569938d0c8");
    ("tail call skid log", "dfb94c8fd135887e");
    ("tail call PEBS 7 counters", "1a85b1c1e1d4f236");
    ("tail call PEBS 7 log", "44cdb4fc9c5fda8e");
    ("tail call skid 7 counters", "1a85b1c1e1d4f236");
    ("tail call skid 7 log", "bdc49c5294fcb78c");
    ("tail call PEBS 61 counters", "9c322b2621782c8f");
    ("tail call PEBS 61 log", "3b333f2fafe1c65e");
    ("tail call skid 61 counters", "9c322b2621782c8f");
    ("tail call skid 61 log", "a403d8278e901efd");
    ("instrumented counters", "023221ef9160fa32");
    ("instrumented profiles", "67a9105425ff7944");
    ("labeled counters", "008d7d50a9db3b9c");
    ("labeled log", "0198f3eba21a37f0");
    ("debug poison counters", "6d6cd19400d0d938");
    ("debug poison log", "ad30f02193162715");
  ]

let check_case (name, run) () =
  List.iter
    (fun (aspect, rendering) ->
      let key = name ^ " " ^ aspect in
      let got = hex rendering in
      match List.assoc_opt key pinned with
      | Some want -> Alcotest.(check string) (key ^ " digest") want got
      | None -> Alcotest.failf "no pin for %s (digest %s)" key got)
    (run ())

let suite =
  ( "vm-pin",
    List.map
      (fun ((name, _) as c) -> Alcotest.test_case name `Quick (check_case c))
      (suite_cases @ other_cases @ period_cases) )
