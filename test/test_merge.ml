(* Profile.Merge: the four algebraic merge laws — commutative,
   associative, weight-linear, identity-on-empty — checked for all three
   profile shapes over generator-driven random profiles, plus the
   deterministic metadata/count semantics the laws rest on. All equality
   is canonical-text equality ([Text_io.to_string]): the writers sort, so
   byte equality is full structural equality. The fleet fuzz oracle
   re-checks the same laws on real correlated profiles. *)
module Ir = Csspgo_ir
module P = Csspgo_profile
module M = P.Merge
module LP = P.Line_profile
module PP = P.Probe_profile
module CP = P.Ctx_profile

let g name = Ir.Guid.of_name name
let text = P.Text_io.to_string

(* --- random profiles (Test_profile's generators and builders) --------- *)

let build_probe specs = P.Text_io.Probe_prof (Test_profile.build_probe specs)
let build_line specs = P.Text_io.Line_prof (Test_profile.build_line specs)
let build_ctx specs = P.Text_io.Ctx_prof (Test_profile.build_ctx specs)

(* One law battery per shape: a generator of spec pairs plus a builder. *)
let laws ~shape ~arb ~build =
  let kind p = P.Text_io.kind_of p in
  let w2 kd wa a wb b = M.weighted ~kind:kd [ (wa, a); (wb, b) ] in
  [
    QCheck.Test.make
      ~name:(shape ^ " merge is commutative")
      ~count:100 QCheck.(pair arb arb)
      (fun (sa, sb) ->
        let a = build sa and b = build sb in
        let kd = kind a in
        String.equal (text (w2 kd 2L a 3L b)) (text (w2 kd 3L b 2L a)));
    QCheck.Test.make
      ~name:(shape ^ " merge is associative")
      ~count:100
      QCheck.(triple arb arb arb)
      (fun (sa, sb, sc) ->
        let a = build sa and b = build sb and c = build sc in
        let kd = kind a in
        String.equal
          (text (w2 kd 1L (w2 kd 1L a 1L b) 1L c))
          (text (w2 kd 1L a 1L (w2 kd 1L b 1L c))));
    QCheck.Test.make
      ~name:(shape ^ " merge is weight-linear")
      ~count:100 arb
      (fun sa ->
        let a = build sa in
        let kd = kind a in
        String.equal
          (text (M.weighted ~kind:kd [ (3L, a) ]))
          (text (M.weighted ~kind:kd [ (1L, a); (1L, a); (1L, a) ])));
    QCheck.Test.make
      ~name:(shape ^ " merge has empty as identity")
      ~count:100 arb
      (fun sa ->
        let a = build sa in
        let kd = kind a in
        String.equal (text a) (text (w2 kd 1L a 1L (M.empty kd)))
        && String.equal (text a) (text (M.copy a)));
  ]

let probe_gen = QCheck.small_list Test_profile.fentry_spec_gen
let ctx_gen = QCheck.small_list Test_profile.ctx_spec_gen

(* --- deterministic semantics the laws rest on ------------------------ *)

let mk_fe t ?(checksum = 0L) name =
  let fe = PP.get_or_add t (g name) ~name in
  fe.PP.fe_checksum <- checksum;
  fe

let test_counts_scale_and_add () =
  let a = PP.create () in
  let fa = mk_fe a "f" in
  PP.add_probe fa 1 10L;
  let b = PP.create () in
  let fb = mk_fe b "f" in
  PP.add_probe fb 1 4L;
  PP.add_probe fb 2 1L;
  let into = PP.create () in
  M.probe ~into ~weight:2L a;
  M.probe ~into ~weight:5L b;
  let fe = Option.get (PP.get into (g "f")) in
  Alcotest.(check int64) "2*10 + 5*4" 40L (PP.probe_count fe 1);
  Alcotest.(check int64) "5*1" 5L (PP.probe_count fe 2);
  Alcotest.(check int64) "total follows" 45L fe.PP.fe_total

let test_checksum_unsigned_max () =
  let mk checksum =
    let t = PP.create () in
    ignore (mk_fe t ~checksum "f");
    t
  in
  let into = PP.create () in
  M.probe ~into ~weight:1L (mk 0L);
  M.probe ~into ~weight:1L (mk 7L);
  (* -1L is the largest unsigned 64-bit pattern: it must win over 7 *)
  M.probe ~into ~weight:1L (mk (-1L));
  Alcotest.(check int64) "unsigned max wins" (-1L)
    (Option.get (PP.get into (g "f"))).PP.fe_checksum;
  let into2 = PP.create () in
  M.probe ~into:into2 ~weight:1L (mk 7L);
  M.probe ~into:into2 ~weight:1L (mk 0L);
  Alcotest.(check int64) "real checksum beats absent" 7L
    (Option.get (PP.get into2 (g "f"))).PP.fe_checksum

let test_weight_zero_is_noop () =
  let a = PP.create () in
  let fa = mk_fe a "f" in
  PP.add_probe fa 1 10L;
  let into = PP.create () in
  M.probe ~into ~weight:0L a;
  Alcotest.(check string) "weight 0 leaves the target untouched"
    (text (P.Text_io.Probe_prof (PP.create ())))
    (text (P.Text_io.Probe_prof into));
  match M.probe ~into ~weight:(-1L) a with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative weight accepted"

let test_kind_mismatch_rejected () =
  let p = P.Text_io.Probe_prof (PP.create ()) in
  let l = P.Text_io.Line_prof (LP.create ()) in
  match M.into ~into:p ~weight:1L l with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "kind mismatch accepted"

let test_ctx_inline_mark_or () =
  let mk inlined =
    let t = CP.create () in
    let n = Option.get (CP.node_at t ~path:[ ((g "main", 1), g "f", "f") ]) in
    n.CP.n_inlined <- inlined;
    PP.add_probe n.CP.n_prof 1 1L;
    t
  in
  let into = CP.create () in
  M.ctx ~into ~weight:1L (mk false);
  M.ctx ~into ~weight:1L (mk true);
  M.ctx ~into ~weight:1L (mk false);
  let n =
    Option.get
      (CP.find_node into ~leaf:(g "f") (fun ctx -> List.length ctx = 1))
  in
  Alcotest.(check bool) "inline marks or together" true n.CP.n_inlined

let prop_flatten_conserves =
  QCheck.Test.make ~name:"flatten_ctx conserves totals" ~count:100 ctx_gen
    (fun specs ->
      let t = Test_profile.build_ctx specs in
      Int64.equal (CP.total_samples t) (PP.total_samples (M.flatten_ctx t)))

let suite =
  ( "merge",
    [
      Alcotest.test_case "counts scale and add" `Quick test_counts_scale_and_add;
      Alcotest.test_case "checksums merge by unsigned max" `Quick
        test_checksum_unsigned_max;
      Alcotest.test_case "weight 0 is a no-op; negative rejected" `Quick
        test_weight_zero_is_noop;
      Alcotest.test_case "kind mismatch rejected" `Quick
        test_kind_mismatch_rejected;
      Alcotest.test_case "ctx inline marks or together" `Quick
        test_ctx_inline_mark_or;
      QCheck_alcotest.to_alcotest prop_flatten_conserves;
    ]
    @ List.concat_map QCheck_alcotest.(fun t -> List.map to_alcotest t)
        [
          laws ~shape:"probe" ~arb:probe_gen ~build:build_probe;
          laws ~shape:"line" ~arb:probe_gen ~build:build_line;
          laws ~shape:"ctx" ~arb:ctx_gen ~build:build_ctx;
        ] )
