(* Differential testing over random programs: every build configuration
   must compute the same result, and probed binaries must carry no extra
   run-time instructions worth of work. *)
module F = Csspgo_frontend
module Ir = Csspgo_ir
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module W = Csspgo_workloads
module Core = Csspgo_core

let build ?(probes = false) ?(instrument = false) ~config src =
  let p = F.Lower.compile src in
  if probes then Core.Pseudo_probe.insert p;
  if instrument then ignore (Core.Instrument.instrument p);
  Opt.Pass.optimize ~config p;
  Ir.Verify.check_exn p;
  Cg.Emit.emit ~options:Cg.Emit.default_options p

exception Out_of_fuel

let run bin args =
  match Vm.Machine.run ~pmu:None ~fuel:20_000_000L bin ~entry:"main" ~args with
  | r -> r.Vm.Machine.ret_value
  | exception Vm.Machine.Trap "fuel exhausted" -> raise Out_of_fuel

(* Out-of-fuel runs are counted as passes below to stay inside QCheck's
   discard budget, but each one is vacuous: the property checked nothing.
   Track them so a generator regression that makes most programs diverge
   fails loudly instead of silently green-washing the suite. *)
let n_checked = ref 0
let n_vacuous = ref 0

let differential seed =
  let src = W.Gen.random_source ~n_funcs:5 ~seed () in
  let args = [ Int64.of_int (Int64.to_int seed land 0xff); 17L ] in
  match
    let o0 = run (build ~config:Opt.Config.o0 src) args in
    let o2 = run (build ~config:Opt.Config.o2_nopgo src) args in
    let o2p = run (build ~probes:true ~config:Opt.Config.o2_nopgo src) args in
    let o2i = run (build ~instrument:true ~config:Opt.Config.o2_nopgo src) args in
    let o2l =
      let p = F.Lower.compile src in
      Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
      let b = Cg.Emit.emit ~options:{ Cg.Emit.layout = `Hot_path } p in
      run b args
    in
    (o0, o2, o2p, o2i, o2l)
  with
  | o0, o2, o2p, o2i, o2l ->
      incr n_checked;
      if
        not
          (Int64.equal o0 o2 && Int64.equal o2 o2p && Int64.equal o2 o2i
          && Int64.equal o2 o2l)
      then
        QCheck.Test.fail_reportf
          "miscompile at seed %Ld: O0=%Ld O2=%Ld O2+probes=%Ld O2+instr=%Ld O2+hot-path=%Ld@.%s"
          seed o0 o2 o2p o2i o2l src
      else true
  | exception Out_of_fuel ->
      (* A generated program that runs too long is vacuous for this
         property (and QCheck's discard budget is too tight to assume-fail
         it away): count it as a pass, but record the discard. *)
      incr n_vacuous;
      true
  | exception e ->
      QCheck.Test.fail_reportf "crash at seed %Ld: %s@.%s" seed (Printexc.to_string e) src

let prop_differential =
  QCheck.Test.make ~name:"O0 = O2 = O2+probes = O2+instrumentation" ~count:60
    QCheck.(int_range 1 1_000_000)
    (fun seed -> differential (Int64.of_int seed))

let prop_pgo_roundtrip =
  (* Full PGO cycles on random programs never change program results. *)
  QCheck.Test.make ~name:"PGO variants preserve semantics" ~count:10
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let seed = Int64.of_int seed in
      let src = W.Gen.random_source ~n_funcs:4 ~seed () in
      let spec = { Core.Driver.rs_args = [ 9L; 4L ]; rs_globals = [] } in
      let w =
        {
          Core.Driver.w_name = "gen";
          w_source = src;
          w_entry = "main";
          w_train = [ spec ];
          w_eval = [ spec ];
        }
      in
      match
        List.map
          (fun v ->
            let o = Core.Driver.run_variant v w in
            run o.Core.Driver.o_binary spec.Core.Driver.rs_args)
          [ Core.Driver.Nopgo; Core.Driver.Autofdo; Core.Driver.Csspgo_probe_only;
            Core.Driver.Csspgo_full; Core.Driver.Instr_pgo ]
      with
      | v0 :: rest ->
          incr n_checked;
          List.for_all (Int64.equal v0) rest
      | [] -> false
      | exception Out_of_fuel ->
          incr n_vacuous;
          true
      | exception e ->
          QCheck.Test.fail_reportf "crash at seed %Ld: %s@.%s" seed (Printexc.to_string e) src)

(* Runs after the two properties above (alcotest preserves registration
   order within a suite): if over half the generated programs ran out of
   fuel, the properties were mostly vacuous and the green result means
   nothing — fail instead of quietly passing. *)
let test_not_vacuous () =
  (* total = 0 only when the properties themselves were filtered out *)
  let total = !n_checked + !n_vacuous in
  if total > 0 && !n_vacuous * 2 > total then
    Alcotest.failf "differential properties mostly vacuous: %d/%d runs discarded (out of fuel)"
      !n_vacuous total

let suite =
  ( "differential",
    [
      QCheck_alcotest.to_alcotest ~long:false prop_differential;
      QCheck_alcotest.to_alcotest ~long:false prop_pgo_roundtrip;
      Alcotest.test_case "discard rate below 50%" `Quick test_not_vacuous;
    ] )
