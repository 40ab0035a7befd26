(* VM semantics and PMU model. *)
module F = Csspgo_frontend
module Ir = Csspgo_ir
module Cg = Csspgo_codegen
module Mach = Cg.Mach
module Vm = Csspgo_vm
module Opt = Csspgo_opt
module SL = Vm.Sample_log

let build ?(probes = false) ?(config = Opt.Config.o2_nopgo) src =
  let p = F.Lower.compile src in
  if probes then Csspgo_core.Pseudo_probe.insert p;
  Opt.Pass.optimize ~config p;
  Cg.Emit.emit ~options:Cg.Emit.default_options p

(* A sampled run of [main] with every sample recorded into a log. *)
let record pmu bin args =
  let log = SL.create () in
  let r = Vm.Machine.run ~pmu:(Some pmu) ~sink:(SL.sink log) bin ~entry:"main" ~args in
  (r, log)

(* The longest recorded LBR and stack. *)
let max_lens log =
  let lbr = ref 0 and stack = ref 0 in
  SL.iter log (fun ~lbr:_ ~lbr_len ~stack:_ ~stack_len ->
      lbr := max !lbr lbr_len;
      stack := max !stack stack_len);
  (!lbr, !stack)

let test_arith_semantics () =
  let bin = build "fn main(a, b) { return (a * b + a / b - a % b) ^ (a & b) | (a << 2); }" in
  let run a b =
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ a; b ]).Vm.Machine.ret_value
  in
  let expect a b =
    let open Int64 in
    logor
      (logxor (sub (add (mul a b) (div a b)) (rem a b)) (logand a b))
      (shift_left a 2)
  in
  List.iter
    (fun (a, b) -> Alcotest.(check int64) "arith" (expect a b) (run a b))
    [ (17L, 5L); (100L, 3L); (7L, 7L); (123456L, 789L) ]

let test_division_by_zero_total () =
  let bin = build "fn main(a) { return a / 0 + a % 0; }" in
  Alcotest.(check int64) "div by zero is 0" 0L
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 5L ]).Vm.Machine.ret_value

let test_array_wraps () =
  let bin = build "global g[8];\nfn main(a) { g[a] = 42; return g[a % 8]; }" in
  (* index 10 wraps to 2 for both store and load *)
  Alcotest.(check int64) "wrapped index" 42L
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 10L ]).Vm.Machine.ret_value

let test_fuel_trap () =
  let bin = build "fn main(a) { let s = 0; let i = 0; while (i < a) { s = s + 1; i = i + 1; } return s; }" in
  Alcotest.(check bool) "fuel exhaustion traps" true
    (match Vm.Machine.run ~pmu:None ~fuel:100L bin ~entry:"main" ~args:[ 1000000L ] with
    | exception Vm.Machine.Trap _ -> true
    | _ -> false)

let test_lbr_records_branches () =
  let bin = build "fn main(n) { let s = 0; let i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }" in
  let _, log = record { Vm.Machine.default_pmu with sample_period = 200 } bin [ 2000L ] in
  Alcotest.(check bool) "samples collected" true (SL.n_samples log > 3);
  Alcotest.(check bool) "lbr bounded" true (fst (max_lens log) <= 16);
  SL.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
      for i = 0 to (2 * lbr_len) - 1 do
        if lbr.(i) = 0 then Alcotest.fail "zero LBR entry"
      done)

let test_stack_samples_have_callers () =
  let src =
    {|
    fn inner(n) { let s = 0; let i = 0; while (i < n) { s = s + i * 3; i = i + 1; } return s; }
    fn outer(n) { return inner(n) + 1; }
    fn main(n) { let t = 0; let k = 0; while (k < 50) { t = t + outer(n); k = k + 1; } return t; }
    |}
  in
  (* Force no inlining so the call chain exists physically. *)
  let bin = build ~config:Opt.Config.o0 src in
  let _, log = record { Vm.Machine.default_pmu with sample_period = 100 } bin [ 40L ] in
  Alcotest.(check bool) "some sample sees main->outer->inner" true (snd (max_lens log) >= 3)

let test_counters_exact () =
  let src = "fn main(n) { let s = 0; let i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }" in
  let p = F.Lower.compile src in
  let im = Csspgo_core.Instrument.instrument p in
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let r = Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 123L ] in
  let counts = Csspgo_core.Instrument.block_counts im r.Vm.Machine.counters in
  (* The loop body block must have executed exactly 123 times. *)
  let has_123 = Hashtbl.fold (fun _ c acc -> acc || Int64.equal c 123L) counts false in
  Alcotest.(check bool) "counter shows 123 iterations" true has_123;
  (* entry executed once *)
  let guid = Ir.Guid.of_name "main" in
  Alcotest.(check (option int64)) "entry once" (Some 1L)
    (Hashtbl.find_opt counts (guid, 0))

let test_value_profiles_captured () =
  let src = "global d[4];\nfn main(n) { let s = 0; let i = 0; while (i < n) { s = s + i / d[0]; i = i + 1; } return s; }" in
  let p = F.Lower.compile src in
  let vals = Csspgo_core.Instrument.instrument_values p in
  Alcotest.(check int) "one site" 1 vals.Csspgo_core.Instrument.n_sites;
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let r =
    Vm.Machine.run ~pmu:None ~globals_init:[ ("d", [| 7L; 0L; 0L; 0L |]) ] bin ~entry:"main"
      ~args:[ 50L ]
  in
  (match Hashtbl.find_opt r.Vm.Machine.value_profiles 0 with
  | Some hist ->
      Alcotest.(check (option int64)) "divisor 7 seen 50 times" (Some 50L)
        (Hashtbl.find_opt hist 7L)
  | None -> Alcotest.fail "no histogram")

let test_determinism () =
  let bin = build Csspgo_workloads.Suite.vecop_example in
  let run () =
    let r, log = record Vm.Machine.default_pmu bin [ 256L; 40L ] in
    (r.Vm.Machine.cycles, r.Vm.Machine.instructions, r.Vm.Machine.ret_value,
     SL.to_text log)
  in
  Alcotest.(check bool) "identical reruns" true (run () = run ())

let test_probes_cost_no_instructions () =
  let src = Csspgo_workloads.Suite.vecop_example in
  let plain = build src in
  let probed = build ~probes:true src in
  let run bin =
    let r = Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 128L; 10L ] in
    (r.Vm.Machine.ret_value, r.Vm.Machine.instructions)
  in
  let rv1, n1 = run plain and rv2, n2 = run probed in
  Alcotest.(check int64) "same result" rv1 rv2;
  (* Pseudo-probes may block a merge or forwarding (slightly different code)
     but must not add counter-like work: within 2%. *)
  let ratio = Int64.to_float n2 /. Int64.to_float n1 in
  if ratio > 1.02 then Alcotest.failf "probes added %.1f%% instructions" ((ratio -. 1.) *. 100.)

let test_instrumentation_is_expensive () =
  let src = Csspgo_workloads.Suite.vecop_example in
  let plain = build src in
  let p = F.Lower.compile src in
  let _ = Csspgo_core.Instrument.instrument p in
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  let instrumented = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let cycles bin =
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 128L; 10L ]).Vm.Machine.cycles
  in
  let c1 = cycles plain and c2 = cycles instrumented in
  Alcotest.(check bool) "counters slow the binary by >20%" true
    (Int64.to_float c2 > 1.2 *. Int64.to_float c1)

let test_switch_dispatch () =
  let src = {|
fn main(op) {
  switch (op) {
    case 0: return 10;
    case 1: return 20;
    case 7: return 70;
    default: return 1;
  }
}
|} in
  let bin = build src in
  let run v = (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ v ]).Vm.Machine.ret_value in
  Alcotest.(check int64) "case 0" 10L (run 0L);
  Alcotest.(check int64) "case 7" 70L (run 7L);
  Alcotest.(check int64) "default" 1L (run 99L);
  Alcotest.(check int64) "negative scrutinee" 1L (run (-3L))

let test_tail_call_semantics () =
  (* Deep tail-recursive countdown must not change results under TCE. *)
  let src = "fn down(n, acc) { if (n <= 0) { return acc; } return down(n - 1, acc + n); }\nfn main(a) { return down(a, 0); }" in
  let bin = build src in
  Alcotest.(check int64) "sum 1..1000" 500500L
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 1000L ]).Vm.Machine.ret_value

let test_lbr_depth_config () =
  let src = "fn main(n) { let s = 0; let i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }" in
  let bin = build src in
  let _, log =
    record { Vm.Machine.default_pmu with sample_period = 100; lbr_depth = 32 } bin [ 5000L ]
  in
  let deepest = fst (max_lens log) in
  Alcotest.(check bool) "32-deep LBR fills" true (deepest >= 32);
  if deepest > 32 then Alcotest.fail "LBR overflow"

(* Without a sink the PMU still fires on schedule and counts every sample,
   though nothing is kept. *)
let test_n_samples_without_sink () =
  let bin = build Csspgo_workloads.Suite.vecop_example in
  let pmu = { Vm.Machine.default_pmu with sample_period = 97; pebs = false } in
  let bare = Vm.Machine.run ~pmu:(Some pmu) bin ~entry:"main" ~args:[ 256L; 40L ] in
  let r, log = record pmu bin [ 256L; 40L ] in
  Alcotest.(check bool) "samples taken" true (r.Vm.Machine.n_samples > 0);
  Alcotest.(check int) "same count" r.Vm.Machine.n_samples bare.Vm.Machine.n_samples;
  Alcotest.(check int) "all recorded" r.Vm.Machine.n_samples (SL.n_samples log);
  Alcotest.(check int64) "same cycles" r.Vm.Machine.cycles bare.Vm.Machine.cycles

let test_pebs_suppresses_skid () =
  (* With PEBS on, skid_prob must have no effect: identical samples. *)
  let src = "fn f(x) { return x * 2 + 1; }\nfn main(n) { let s = 0; let i = 0; while (i < n) { s = s + f(i); i = i + 1; } return s; }" in
  let bin = build ~config:Opt.Config.o0 src in
  let run skid =
    snd
      (record
         { Vm.Machine.default_pmu with sample_period = 97; pebs = true; skid_prob = skid }
         bin [ 2000L ])
  in
  let calm = run 0.0 and skiddy = run 0.9 in
  Alcotest.(check int) "same sample count" (SL.n_samples calm) (SL.n_samples skiddy);
  Alcotest.(check string) "identical samples" (SL.to_text calm) (SL.to_text skiddy)

let test_globals_init_shapes () =
  let src = "global g[4];\nfn main() { return g[0] + g[1] + g[2] + g[3]; }" in
  let bin = build src in
  let run init =
    (Vm.Machine.run ~pmu:None ~globals_init:[ ("g", init) ] bin ~entry:"main")
      .Vm.Machine.ret_value
  in
  Alcotest.(check int64) "exact" 10L (run [| 1L; 2L; 3L; 4L |]);
  Alcotest.(check int64) "short init zero-pads" 3L (run [| 1L; 2L |]);
  Alcotest.(check int64) "long init truncates" 10L (run [| 1L; 2L; 3L; 4L; 99L |]);
  Alcotest.(check int64) "missing init zeros" 0L
    (Vm.Machine.run ~pmu:None bin ~entry:"main").Vm.Machine.ret_value

let test_negative_index_wraps () =
  let src = "global g[8];\nfn main(a) { g[6] = 42; return g[a]; }" in
  let bin = build src in
  (* -2 mod 8 -> 6 under the VM's non-negative wrap *)
  Alcotest.(check int64) "negative index" 42L
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ -2L ]).Vm.Machine.ret_value

(* The register file starts small and grows by doubling; a recursion
   thousands of frames deep grows it mid-call, and the samples taken at
   depth walk every frame. *)
let test_deep_recursion_grows_frames () =
  let src =
    "fn down(n) { if (n == 0) { return 0; } return 1 + down(n - 1); }\n\
     fn main(n) { return down(n); }"
  in
  let bin = build ~config:Opt.Config.o0 src in
  let r, log = record { Vm.Machine.default_pmu with sample_period = 1009 } bin [ 5000L ] in
  Alcotest.(check int64) "depth returned" 5000L r.Vm.Machine.ret_value;
  Alcotest.(check bool) "a sample walks thousands of frames" true (snd (max_lens log) > 4000)

let func_named bin name =
  List.find (fun f -> f.Mach.bf_name = name) (Array.to_list bin.Mach.funcs)

(* A tail call reuses its caller's base, so a callee with more spill slots
   than its caller must get a frame of its own size. *)
let test_tail_call_into_bigger_frame () =
  let vars = List.init 20 (fun k -> Printf.sprintf "v%d" k) in
  let src =
    Printf.sprintf
      "fn heavy(x) { %s return %s; }\n\
       fn light(x) { return heavy(x + 1); }\n\
       fn main(n) { let t = 0; let k = 0; while (k < n) { t = t + light(k); k = k + 1; } return t; }"
      (String.concat " "
         (List.mapi (fun k v -> Printf.sprintf "let %s = x * %d + %d;" v (k + 2) k) vars))
      (String.concat " + " (List.rev vars))
  in
  let bin =
    build ~config:{ Opt.Config.o2_nopgo with inline_mode = Opt.Config.Inline_none } src
  in
  let nslots name = (func_named bin name).Mach.bf_nslots in
  Alcotest.(check bool) "callee spills more than its caller" true
    (nslots "heavy" > max 1 (nslots "light"));
  Alcotest.(check bool) "light tail-calls heavy" true
    (Array.exists
       (fun (i : Mach.inst) -> match i.Mach.i_op with Mach.MTail_call _ -> true | _ -> false)
       bin.Mach.insts);
  let heavy x = List.fold_left ( + ) 0 (List.init 20 (fun k -> (x * (k + 2)) + k)) in
  let expect = List.fold_left ( + ) 0 (List.init 50 (fun k -> heavy (k + 1))) in
  Alcotest.(check int64) "result" (Int64.of_int expect)
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 50L ]).Vm.Machine.ret_value

(* Overwrite the first instructions of [main] in an emitted binary. *)
let patch_main bin ops =
  let start = Mach.idx_of_addr bin (func_named bin "main").Mach.bf_start in
  List.iteri (fun k op -> bin.Mach.insts.(start + k).Mach.i_op <- op) ops

let loop_src = "fn main(a) { let s = a; let i = 0; while (i < 3) { s = s + i; i = i + 1; } return s; }"

let test_spill_out_of_range () =
  let bin = build loop_src in
  let past = max (func_named bin "main").Mach.bf_nslots 1 + 3 in
  let run ops =
    patch_main bin ops;
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 5L ]).Vm.Machine.ret_value
  in
  Alcotest.(check int64) "in-range slot round-trips" 7L
    (run Mach.[ MMov (1, OImm 7L); MSpill_st (0, 1); MSpill_ld (2, 0); MRet (OReg 2) ]);
  Alcotest.(check int64) "write past the frame is dropped, read is 0" 0L
    (run Mach.[ MMov (1, OImm 7L); MSpill_st (past, 1); MSpill_ld (2, past); MRet (OReg 2) ]);
  Alcotest.(check int64) "spill operand past the frame reads 0" 0L
    (run Mach.[ MMov (1, OImm 7L); MSpill_st (past, 1); MNop; MRet (OSpill past) ]);
  (* The loop indexes the register file unchecked, so decoding rejects
     what would reach outside a frame. *)
  let traps ops = match run ops with exception Vm.Machine.Trap _ -> true | _ -> false in
  Alcotest.(check bool) "register past n_phys traps" true
    (traps Mach.[ MMov (Mach.n_phys, OImm 7L); MNop; MNop; MRet (OReg 1) ]);
  Alcotest.(check bool) "negative spill slot traps" true
    (traps Mach.[ MSpill_ld (1, -1); MNop; MNop; MRet (OReg 1) ])

let test_switch_duplicate_keys () =
  let src = {|
fn main(op) {
  switch (op) {
    case 0: return 10;
    case 1: return 20;
    case 7: return 70;
    default: return 1;
  }
}
|} in
  let bin = build src in
  Array.iter
    (fun (i : Mach.inst) ->
      match i.Mach.i_op with
      | Mach.MSwitch (o, cases, d) ->
          (* Key 7 now leads to case 0's target first. *)
          i.Mach.i_op <- Mach.MSwitch (o, (7L, List.assoc 0L cases) :: cases, d)
      | _ -> ())
    bin.Mach.insts;
  let run v = (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ v ]).Vm.Machine.ret_value in
  Alcotest.(check int64) "first match wins" 10L (run 7L);
  Alcotest.(check int64) "other keys unchanged" 20L (run 1L);
  Alcotest.(check int64) "default" 1L (run 99L)

(* A loop around a long straight-line body: 16 and more instructions
   with no branch, so a fuel cut can fall anywhere inside one. *)
let straight_src = {|
fn main(a) {
  let s = 0;
  let i = 0;
  while (i < 4) {
    let b = a * 7 + i;
    let c = b ^ (a << 3);
    let d = c - b * 5;
    let e = d + (c >> 2);
    let f = e * 3 - d;
    let g = f ^ (e + b);
    s = s + g - (f >> 1) + c;
    a = a + 1;
    i = i + 1;
  }
  return s;
}
|}

(* The longest run of instructions with no control transfer. *)
let longest_straight_run bin =
  let best = ref 0 and cur = ref 0 in
  Array.iter
    (fun (i : Mach.inst) ->
      match i.Mach.i_op with
      | Mach.MCall _ | Mach.MTail_call _ | Mach.MRet _ | Mach.MJmp _ | Mach.MJcc _
      | Mach.MSwitch _ ->
          cur := 0
      | _ ->
          incr cur;
          best := max !best !cur)
    bin.Mach.insts;
  !best

(* Fuel is checked before each instruction: a run of exactly N
   instructions completes on fuel N, with the counters of an unbounded
   run, and traps on every fuel below N, sampled or not. *)
let test_fuel_bounds () =
  let sweep name bin args =
    List.iter
      (fun (pmu_name, pmu) ->
        let name = name ^ " " ^ pmu_name in
        let run fuel = Vm.Machine.run ~pmu ~fuel bin ~entry:"main" ~args in
        let full = run Int64.max_int in
        let n = full.Vm.Machine.instructions in
        let exact = run n in
        Alcotest.(check int64) (name ^ ": exact fuel, same result") full.Vm.Machine.ret_value
          exact.Vm.Machine.ret_value;
        Alcotest.(check int64) (name ^ ": exact fuel, same cycles") full.Vm.Machine.cycles
          exact.Vm.Machine.cycles;
        Alcotest.(check int) (name ^ ": exact fuel, same samples") full.Vm.Machine.n_samples
          exact.Vm.Machine.n_samples;
        for fuel = 0 to Int64.to_int n - 1 do
          match run (Int64.of_int fuel) with
          | exception Vm.Machine.Trap _ -> ()
          | _ -> Alcotest.failf "%s: fuel %d of %Ld completes" name fuel n
        done)
      [ ("pmu off", None); ("period 7", Some { Vm.Machine.default_pmu with sample_period = 7 }) ]
  in
  let bin = build loop_src in
  let full = Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 5L ] in
  Alcotest.(check int64) "max fuel completes" 8L full.Vm.Machine.ret_value;
  Alcotest.(check int64) "instruction count recorded from the boxed interpreter" 17L
    full.Vm.Machine.instructions;
  sweep "loop" bin [ 5L ];
  let bin = build straight_src in
  let longest = longest_straight_run bin in
  if longest < 16 then Alcotest.failf "longest straight-line run: %d instructions" longest;
  sweep "straight" bin [ 9L ];
  let bin = build "fn main(a) { let s = 0; let i = 0; while (i < a) { s = s + 1; i = i + 1; } return s; }" in
  let trapped_at fuel =
    match Vm.Machine.run ~pmu:None ~fuel bin ~entry:"main" ~args:[ 1000000L ] with
    | exception Vm.Machine.Trap _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "fuel 100 traps" true (trapped_at 100L)

(* Allocation guard: the interpreter loop allocates nothing per simulated
   instruction, global stores included. A fuel-0 run of the same binary
   and inputs pays the run's decoding and setup and then traps, so the
   words it allocates are subtracted: the bound holds the loop alone. *)
let test_no_allocation_per_instruction () =
  let check name src args =
    let bin = build ~config:Opt.Config.o0 src in
    let run fuel =
      let before = Gc.minor_words () in
      let r =
        match Vm.Machine.run ~pmu:None ?fuel bin ~entry:"main" ~args with
        | r -> Some r
        | exception Vm.Machine.Trap _ -> None
      in
      (Gc.minor_words () -. before, r)
    in
    let setup, _ = run (Some 0L) in
    match run None with
    | _, None -> Alcotest.failf "%s: trapped" name
    | words, Some r ->
        let per = (words -. setup) /. Int64.to_float r.Vm.Machine.instructions in
        if per >= 0.01 then
          Alcotest.failf "%s: %.4f minor words per instruction (%Ld instructions)" name per
            r.Vm.Machine.instructions
  in
  check "hot loop"
    "fn main(n) { let s = 0; let i = 0; while (i < n) { s = s + i * 3 % 7 - (i >> 1); i = i + 1; } return s; }"
    [ 100000L ];
  check "recursive calls"
    "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\nfn main(n) { return fib(n); }"
    [ 20L ];
  check "global stores"
    "global g[256];\nfn main(n) { let i = 0; while (i < n) { g[i & 255] = g[i & 255] + i; i = i + 1; } return g[7]; }"
    [ 100000L ]

(* Allocation guards for the sample stream, on a recorded adfinder log.
   The PMU's flush into a sink that keeps nothing, and a replay that does
   nothing, each allocate nothing per LBR entry (under 0.01 words; a
   boxed (src, tgt) pair is 3). Replaying through range aggregation, the
   missing-frame builder and Algorithm 1 allocates less than one word per
   LBR entry, replay included: counts are unboxed ints in a flat table and
   Algorithm 1's [feed] only counts (range, stack) keys, so what remains is
   per distinct key (table growth, resolving the key in [finish]) or per
   sample, not per entry. Words are counted exactly, on both heaps
   ({!Alloc.words}). *)
let test_no_allocation_per_lbr_entry () =
  let module Pg = Csspgo_profgen in
  let module Core = Csspgo_core in
  let module D = Core.Driver in
  let w = Csspgo_workloads.Suite.adfinder in
  let spec = List.hd w.D.w_train in
  let bin = build ~probes:true w.D.w_source in
  let pmu = Some { Vm.Machine.default_pmu with Vm.Machine.sample_period = 1009 } in
  let run ?sink pmu =
    ignore
      (Vm.Machine.run ~pmu ?sink ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args bin
         ~entry:w.D.w_entry)
  in
  let log = SL.create () in
  run ~sink:(SL.sink log) pmu;
  let index = Pg.Bindex.create bin in
  let missing_of () =
    let mb = Core.Missing_frame.start index in
    SL.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
        Core.Missing_frame.feed mb ~lbr ~lbr_len);
    Core.Missing_frame.finish mb
  in
  let missing = missing_of () in
  let entries = ref 0 in
  SL.iter log (fun ~lbr:_ ~lbr_len ~stack:_ ~stack_len:_ -> entries := !entries + lbr_len);
  let per words = words /. float_of_int !entries in
  let check_free name words =
    if per words >= 0.01 then
      Alcotest.failf "%s: %.4f words per LBR entry (%d entries)" name (per words) !entries
  in
  let noop = { Vm.Machine.on_sample = (fun ~lbr:_ ~lbr_len:_ ~stack:_ ~stack_len:_ -> ());
               on_labels = Vm.Machine.no_labels } in
  (* The same run unprofiled pays the same decoding and setup. *)
  check_free "Machine sink"
    (Alloc.words (fun () -> run ~sink:noop pmu) -. Alloc.words (fun () -> run ~sink:noop None));
  check_free "Sample_log.iter"
    (Alloc.words (fun () -> SL.iter log (fun ~lbr:_ ~lbr_len:_ ~stack:_ ~stack_len:_ -> ())));
  let check name f =
    let per = per (Alloc.words f) in
    if per >= 1.0 then
      Alcotest.failf "%s: %.3f words per LBR entry (%d entries)" name per !entries
  in
  check "Ranges" (fun () ->
      let agg = Pg.Ranges.create () in
      SL.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ -> Pg.Ranges.feed agg ~lbr ~lbr_len));
  check "Missing_frame" (fun () -> ignore (missing_of ()));
  check "Ctx_reconstruct" (fun () ->
      let st =
        Core.Ctx_reconstruct.start ~name_of:(fun _ -> None) ~missing
          ~checksum_of:(fun _ -> 0L) index
      in
      SL.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
          Core.Ctx_reconstruct.feed st ~lbr ~lbr_len ~stack ~stack_len);
      ignore (Core.Ctx_reconstruct.finish st))

(* Allocation guard for Algorithm 1 on haas, whose recursion makes
   91,520 distinct (range, stack) keys over 415,616 attributions. The
   kernel counts a repeated key in place and resolves each key once in
   [finish], so what it allocates follows the distinct keys: 33.0 words
   per attribution, setup and trie included, against the bound of 50.
   Resolving every key that missed a 4,096-entry memo again cost 119.8. *)
let test_ctx_words_per_attribution () =
  let module Pg = Csspgo_profgen in
  let module Core = Csspgo_core in
  let module D = Core.Driver in
  let w = Csspgo_workloads.Suite.haas in
  let spec = List.hd w.D.w_train in
  let bin = build ~probes:true w.D.w_source in
  let log = SL.create () in
  ignore
    (Vm.Machine.run
       ~pmu:(Some { Vm.Machine.default_pmu with Vm.Machine.sample_period = 1009 })
       ~sink:(SL.sink log) ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args bin
       ~entry:w.D.w_entry);
  let index = Pg.Bindex.create bin in
  let missing =
    let mb = Core.Missing_frame.start index in
    SL.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
        Core.Missing_frame.feed mb ~lbr ~lbr_len);
    Core.Missing_frame.finish mb
  in
  (* One attribution per LBR entry of a sample with a stack. *)
  let attributions = ref 0 in
  SL.iter log (fun ~lbr:_ ~lbr_len ~stack:_ ~stack_len ->
      if stack_len > 0 then attributions := !attributions + lbr_len);
  let words =
    Alloc.words (fun () ->
        let st =
          Core.Ctx_reconstruct.start ~name_of:(fun _ -> None) ~missing
            ~checksum_of:(fun _ -> 0L) index
        in
        SL.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
            Core.Ctx_reconstruct.feed st ~lbr ~lbr_len ~stack ~stack_len);
        ignore (Core.Ctx_reconstruct.finish st))
  in
  let per = words /. float_of_int !attributions in
  if per >= 50.0 then
    Alcotest.failf "Ctx_reconstruct on haas: %.1f words per attribution (%d attributions)" per
      !attributions

(* Allocation budgets for the sample stream, one per hop, in words per
   arena int of an adfinder training log at period 499. Each hop copies a
   sample at most once: recording fills fixed blocks that are never
   regrown ([compact] trims only the open one), [encode] writes one
   exact-size blob, [decode_chunks] reads each section in place into its
   decoded arena, and the cuts and joins hand out windows onto existing
   blocks without copying a record. A hop that copied its records once
   more would read about one word per int higher. *)
let test_codec_allocation () =
  let module D = Csspgo_core.Driver in
  let module Ls = Csspgo_support.Label_set in
  let w = Csspgo_workloads.Suite.adfinder in
  let bin = build ~probes:true w.D.w_source in
  let record sink =
    List.iter
      (fun (spec : D.run_spec) ->
        ignore
          (Vm.Machine.run
             ~pmu:(Some { Vm.Machine.default_pmu with Vm.Machine.sample_period = 499 })
             ~sink ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args bin
             ~entry:w.D.w_entry))
      w.D.w_train
  in
  let log = SL.create () in
  record (SL.sink log);
  SL.compact log;
  let ints = ref 0 in
  SL.iter log (fun ~lbr:_ ~lbr_len ~stack:_ ~stack_len ->
      ints := !ints + 2 + (2 * lbr_len) + stack_len);
  (* The same records under two tenants, switching every 1,000 samples. *)
  let labeled = SL.create () in
  let i = ref 0 in
  SL.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
      if !i mod 1000 = 0 then
        SL.set_label labeled
          (Ls.of_list [ ("tenant", if !i mod 2000 = 0 then "acme" else "zeta") ]);
      incr i;
      SL.add labeled ~lbr ~lbr_len ~stack ~stack_len);
  let blob = SL.encode log in
  let parts = SL.split labeled in
  let check name budget words =
    let per = words /. float_of_int !ints in
    if per > budget then
      Alcotest.failf "%s: %.3f words per arena int (%d ints), budget %.2f" name per !ints
        budget
  in
  let noop =
    { Vm.Machine.on_sample = (fun ~lbr:_ ~lbr_len:_ ~stack:_ ~stack_len:_ -> ());
      on_labels = Vm.Machine.no_labels }
  in
  check "record, compact included" 1.25
    (Alloc.words (fun () ->
         let l = SL.create () in
         record (SL.sink l);
         SL.compact l)
    -. Alloc.words (fun () -> record noop));
  check "encode" 0.35 (Alloc.words (fun () -> ignore (SL.encode log)));
  check "decode_chunks" 1.05
    (Alloc.words (fun () ->
         match SL.decode_chunks blob with
         | Ok _ -> ()
         | Error e -> Alcotest.fail (Csspgo_support.Wire.error_to_string e)));
  check "split" 0.05 (Alloc.words (fun () -> ignore (SL.split labeled)));
  check "concat" 0.05 (Alloc.words (fun () -> ignore (SL.concat parts)));
  check "append" 0.05 (Alloc.words (fun () -> SL.append ~into:(SL.create ()) labeled));
  check "slice_by_label" 0.05 (Alloc.words (fun () -> ignore (SL.slice_by_label labeled)))

let suite =
  ( "vm",
    [
      Alcotest.test_case "arith semantics" `Quick test_arith_semantics;
      Alcotest.test_case "division by zero" `Quick test_division_by_zero_total;
      Alcotest.test_case "array wrapping" `Quick test_array_wraps;
      Alcotest.test_case "fuel trap" `Quick test_fuel_trap;
      Alcotest.test_case "lbr records" `Quick test_lbr_records_branches;
      Alcotest.test_case "stack samples" `Quick test_stack_samples_have_callers;
      Alcotest.test_case "counters exact" `Quick test_counters_exact;
      Alcotest.test_case "value profiles" `Quick test_value_profiles_captured;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "probes near zero cost" `Quick test_probes_cost_no_instructions;
      Alcotest.test_case "instrumentation expensive" `Quick test_instrumentation_is_expensive;
      Alcotest.test_case "switch dispatch" `Quick test_switch_dispatch;
      Alcotest.test_case "tail call semantics" `Quick test_tail_call_semantics;
      Alcotest.test_case "lbr depth config" `Quick test_lbr_depth_config;
      Alcotest.test_case "pebs suppresses skid" `Quick test_pebs_suppresses_skid;
      Alcotest.test_case "n_samples without a sink" `Quick test_n_samples_without_sink;
      Alcotest.test_case "globals init shapes" `Quick test_globals_init_shapes;
      Alcotest.test_case "negative index wraps" `Quick test_negative_index_wraps;
      Alcotest.test_case "deep recursion grows frames" `Quick test_deep_recursion_grows_frames;
      Alcotest.test_case "tail call into bigger frame" `Quick test_tail_call_into_bigger_frame;
      Alcotest.test_case "spill slots out of range" `Quick test_spill_out_of_range;
      Alcotest.test_case "switch duplicate keys" `Quick test_switch_duplicate_keys;
      Alcotest.test_case "fuel bounds" `Quick test_fuel_bounds;
      Alcotest.test_case "no allocation per instruction" `Quick test_no_allocation_per_instruction;
      Alcotest.test_case "no allocation per LBR entry" `Quick test_no_allocation_per_lbr_entry;
      Alcotest.test_case "ctx words per attribution" `Quick test_ctx_words_per_attribution;
      Alcotest.test_case "codec words per arena int" `Quick test_codec_allocation;
    ] )
