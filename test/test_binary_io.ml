(* Binary profile & sample-log codec: round-trip properties over every
   profile shape, a corruption battery (bit flips, truncation, extension
   must all yield typed errors), and version handling. The text form is
   canonical — writers sort — so [Text_io.to_string] equality is full
   structural equality and every binary check reduces to it. *)
module Ir = Csspgo_ir
module P = Csspgo_profile
module S = Csspgo_support
module Vm = Csspgo_vm
module LP = P.Line_profile
module PP = P.Probe_profile
module CP = P.Ctx_profile
module B = P.Binary_io
module SL = Vm.Sample_log
module Wire = S.Wire

let g name = Ir.Guid.of_name name

(* text -> binary -> text must be byte-identical *)
let rt_ok p =
  let text = P.Text_io.to_string p in
  match B.decode (B.encode p) with
  | Ok p' -> String.equal (P.Text_io.to_string p') text
  | Error _ -> false

(* --- deterministic edge cases ---------------------------------------- *)

let test_empty_profiles () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (P.Text_io.kind_name (P.Text_io.kind_of p) ^ " empty round-trips")
        true (rt_ok p))
    [
      P.Text_io.Probe_prof (PP.create ());
      P.Text_io.Line_prof (LP.create ());
      P.Text_io.Ctx_prof (CP.create ());
    ]

let test_extreme_counters () =
  (* zero counts, max-int counts, negative-looking checksums: the varint
     codec works on the 64-bit pattern, so all of these must survive *)
  let t = PP.create () in
  let fe = PP.get_or_add t (g "f") ~name:"f" in
  fe.PP.fe_head <- Int64.max_int;
  fe.PP.fe_checksum <- -1L;
  PP.add_probe fe 1 0L;
  PP.add_probe fe 2 Int64.max_int;
  PP.add_call fe 3 (g "callee") Int64.max_int;
  Alcotest.(check bool) "max-int probe profile" true (rt_ok (P.Text_io.Probe_prof t));
  let l = LP.create () in
  let fe = LP.get_or_add l (g "f") ~name:"f" in
  LP.set_line_max fe (1, 0) Int64.max_int;
  LP.set_line_max fe (2, 1) 0L;
  LP.add_call fe (1, 0) (g "callee") Int64.max_int;
  Alcotest.(check bool) "max-int line profile" true (rt_ok (P.Text_io.Line_prof l));
  let c = CP.create () in
  let node =
    Option.get (CP.node_at c ~path:[ ((g "main", 7), g "f", "f") ])
  in
  node.CP.n_prof.PP.fe_checksum <- Int64.min_int;
  PP.add_probe node.CP.n_prof 1 Int64.max_int;
  Alcotest.(check bool) "max-int ctx profile" true (rt_ok (P.Text_io.Ctx_prof c))

let test_sniffing () =
  let p = P.Text_io.Probe_prof (PP.create ()) in
  let b = B.encode p in
  Alcotest.(check bool) "binary sniffs binary" true (B.is_binary b);
  Alcotest.(check bool) "text does not sniff binary" false
    (B.is_binary (P.Text_io.to_string p));
  (match P.Io.read b with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("Io.read binary: " ^ e));
  let t = PP.create () in
  let fe = PP.get_or_add t (g "f") ~name:"f" in
  PP.add_probe fe 1 5L;
  match P.Io.read (P.Text_io.to_string (P.Text_io.Probe_prof t)) with
  | Ok p -> Alcotest.(check int64) "Io.read text" 5L (P.Text_io.total_samples p)
  | Error e -> Alcotest.fail ("Io.read text: " ^ e)

(* --- version handling ------------------------------------------------- *)

let test_version_rejection () =
  let payload =
    (* a structurally valid (empty) probe section under a future version *)
    let e = Wire.Enc.create () in
    Wire.Enc.varint e 0;
    Wire.section ~tag:2 e
  in
  let blob = Wire.frame ~magic:B.magic ~version:(B.version + 1) [ payload ] in
  (match B.decode blob with
  | Error (Wire.Unsupported_version { version; max }) ->
      Alcotest.(check int) "reported version" (B.version + 1) version;
      Alcotest.(check int) "reported max" B.version max
  | Error e -> Alcotest.fail ("wrong error: " ^ Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "future version accepted");
  (* and version-0 is below the floor *)
  let blob0 = Wire.frame ~magic:B.magic ~version:0 [ payload ] in
  match B.decode blob0 with
  | Error (Wire.Unsupported_version _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "version 0 accepted"

(* A version-1 probe-profile blob captured when the format shipped; it must
   keep decoding verbatim under every future write-side version bump. The
   golden .bprof fixtures pin the same contract for the current encoder. *)
let v1_probe_text =
  "function f guid=e2d0b8fcf3fc4e4b total=107 head=12 checksum=dead\n\
  \ probe 1 100\n\
  \ probe 3 7\n\
  \ call 2 9ff27cf582c1e086 55\n"

let test_v1_compat () =
  (* re-derive the pinned blob from its pinned text: if the encoder output
     for this input ever changes, the golden rules catch it; if the decoder
     stops accepting it, this does *)
  let p = P.Text_io.of_string v1_probe_text in
  let blob = B.encode p in
  match B.decode blob with
  | Ok p' ->
      Alcotest.(check string) "v1 text preserved" v1_probe_text
        (P.Text_io.to_string p')
  | Error e -> Alcotest.fail (Wire.error_to_string e)

(* --- corruption battery ---------------------------------------------- *)

(* A mutated blob must never decode successfully and never escape the typed
   error channel: [decode] returns [Error _] for every single-bit flip,
   every truncation, and every extension of a valid blob. *)

let reference_blob () =
  let t = PP.create () in
  let fe = PP.get_or_add t (g "hot") ~name:"hot" in
  fe.PP.fe_head <- 3L;
  fe.PP.fe_checksum <- 0xABCDEF123L;
  List.iter (fun (id, c) -> PP.add_probe fe id c) [ (1, 10L); (2, 999L); (7, 1L) ];
  PP.add_call fe 4 (g "callee") 42L;
  let fe2 = PP.get_or_add t (g "cold") ~name:"cold" in
  PP.add_probe fe2 1 0L;
  B.encode (P.Text_io.Probe_prof t)

let check_rejected what s =
  match B.decode s with
  | Error _ -> ()
  | Ok p ->
      Alcotest.failf "%s silently accepted (decoded a %s profile)" what
        (P.Text_io.kind_name (P.Text_io.kind_of p))
  | exception e ->
      Alcotest.failf "%s escaped the typed error channel: %s" what
        (Printexc.to_string e)

let test_bit_flips () =
  let blob = reference_blob () in
  for i = 0 to String.length blob - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string blob in
      Bytes.set b i (Char.chr (Char.code blob.[i] lxor (1 lsl bit)));
      check_rejected
        (Printf.sprintf "bit flip at byte %d bit %d" i bit)
        (Bytes.to_string b)
    done
  done

let test_truncations () =
  let blob = reference_blob () in
  for n = 0 to String.length blob - 1 do
    check_rejected (Printf.sprintf "truncation to %d bytes" n) (String.sub blob 0 n)
  done

let test_extensions () =
  let blob = reference_blob () in
  List.iter
    (fun suffix ->
      check_rejected
        (Printf.sprintf "%d trailing bytes" (String.length suffix))
        (blob ^ suffix))
    [ "\x00"; "\xff"; "junk"; String.make 64 'A' ]

let test_garbage () =
  List.iter
    (fun s -> check_rejected (Printf.sprintf "garbage %S" s) s)
    [ ""; "C"; "CSP"; "CSPB"; "CSPB\x01"; "not a profile at all"; String.make 3 '\xff' ]

(* A digest-valid ctx section whose node count outruns its payload is
   rejected as malformed, and before the node table is allocated: a count
   of 2^60 would make [Array.make] raise, and one of 20,000,000 in four
   payload bytes would allocate 160 MB before failing. *)
let test_node_count_bounds () =
  let blob count =
    let e = Wire.Enc.create () in
    Wire.Enc.varint e count;
    Wire.frame ~magic:B.magic ~version:B.version [ Wire.section ~tag:3 e ]
  in
  let malformed what s =
    match B.decode s with
    | Error (Wire.Malformed _) -> ()
    | Error e -> Alcotest.failf "%s: unexpected error %s" what (Wire.error_to_string e)
    | Ok _ -> Alcotest.failf "%s accepted" what
    | exception e ->
        Alcotest.failf "%s escaped the typed error channel: %s" what (Printexc.to_string e)
  in
  malformed "2^60 context nodes" (blob (1 lsl 60));
  let small = blob 20_000_000 in
  malformed "20,000,000 context nodes in 4 bytes" small;
  let words = Alloc.words (fun () -> ignore (B.decode small)) in
  if words >= 1000. then
    Alcotest.failf "decoding 20,000,000 declared nodes allocated %.0f words" words

(* --- QCheck round-trip properties (Test_profile's generators) -------- *)

let prop_probe_binary_roundtrip =
  QCheck.Test.make ~name:"probe profiles round-trip through binary" ~count:200
    QCheck.(small_list Test_profile.fentry_spec_gen)
    (fun specs -> rt_ok (P.Text_io.Probe_prof (Test_profile.build_probe specs)))

let prop_line_binary_roundtrip =
  QCheck.Test.make ~name:"line profiles round-trip through binary" ~count:200
    QCheck.(small_list Test_profile.fentry_spec_gen)
    (fun specs -> rt_ok (P.Text_io.Line_prof (Test_profile.build_line specs)))

let prop_ctx_binary_roundtrip =
  QCheck.Test.make ~name:"context profiles round-trip through binary" ~count:200
    QCheck.(pair (small_list Test_profile.ctx_spec_gen) (option (int_range 1 5000)))
    (fun spec -> rt_ok (P.Text_io.Ctx_prof (Test_profile.build_trimmed_ctx spec)))

(* --- sample logs ------------------------------------------------------ *)

let log_of_records records =
  let log = SL.create () in
  List.iter
    (fun (lbr, stack) ->
      let lbr = Array.of_list (List.concat_map (fun (src, tgt) -> [ src; tgt ]) lbr) in
      let stack = Array.of_list stack in
      SL.add log ~lbr ~lbr_len:(Array.length lbr / 2) ~stack ~stack_len:(Array.length stack))
    records;
  log

let log_rt_ok log =
  let txt = SL.to_text log in
  let text_ok =
    match SL.of_text txt with
    | Ok log' -> String.equal (SL.to_text log') txt
    | Error _ -> false
  in
  let bin = SL.encode log in
  let bin_ok =
    match SL.decode bin with
    | Ok log' ->
        String.equal (SL.to_text log') txt && String.equal (SL.encode log') bin
    | Error _ -> false
  in
  text_ok && bin_ok

let prop_sample_log_roundtrip =
  QCheck.Test.make ~name:"sample logs round-trip (text and binary)" ~count:200
    QCheck.(
      small_list
        (pair
           (small_list (pair (int_range 0 100_000) (int_range 0 100_000)))
           (small_list (int_range 0 100_000))))
    (fun records -> log_rt_ok (log_of_records records))

let test_sample_log_edges () =
  Alcotest.(check bool) "empty log" true (log_rt_ok (SL.create ()));
  Alcotest.(check bool) "empty lbr and stack" true (log_rt_ok (log_of_records [ ([], []) ]));
  let log = log_of_records [ ([ (max_int, 0) ], [ max_int; 0 ]) ] in
  Alcotest.(check bool) "max-int addresses" true (log_rt_ok log)

let test_sample_log_corruption () =
  let log = log_of_records [ ([ (1, 2); (3, 4) ], [ 10; 20 ]); ([], [ 7 ]) ] in
  let blob = SL.encode log in
  let rejected what s =
    match SL.decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s silently accepted" what
    | exception e ->
        Alcotest.failf "%s escaped the typed error channel: %s" what
          (Printexc.to_string e)
  in
  for i = 0 to String.length blob - 1 do
    let b = Bytes.of_string blob in
    Bytes.set b i (Char.chr (Char.code blob.[i] lxor 1));
    rejected (Printf.sprintf "bit flip at byte %d" i) (Bytes.to_string b)
  done;
  for n = 0 to String.length blob - 1 do
    rejected (Printf.sprintf "truncation to %d" n) (String.sub blob 0 n)
  done;
  rejected "trailing bytes" (blob ^ "\x00");
  (* structurally inconsistent record stream behind a valid digest: one
     sample declared, arena empty *)
  let e = Wire.Enc.create () in
  Wire.Enc.varint e 1;
  Wire.Enc.varint e 0;
  rejected "record stream overrun"
    (Wire.frame ~magic:SL.magic ~version:1 [ Wire.section ~tag:1 e ]);
  (* bad text forms *)
  let text_rejected what s =
    match SL.of_text s with
    | Error (Wire.Malformed _) -> ()
    | Error e -> Alcotest.failf "%s: unexpected error %s" what (Wire.error_to_string e)
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  text_rejected "missing header" "1 2 3\n";
  text_rejected "count mismatch" "samplelog 2\n0 0\n";
  text_rejected "bad integer" "samplelog 1\n0 x\n";
  text_rejected "short record" "samplelog 1\n2 1 2 0\n"

(* Every single-bit flip of a labeled CSLG v3 blob — record chunks, label
   section, digests — must come back through the typed [Wire] error
   channel. A flip must never surface as an [Ok] log with a different
   labeling: silently mislabeled samples would poison per-tenant slices
   downstream, which is strictly worse than a lost log. *)
let test_labeled_log_corruption () =
  let log = log_of_records [ ([ (1, 2); (3, 4) ], [ 10; 20 ]); ([], [ 7 ]) ] in
  SL.set_label log (S.Label_set.of_list [ ("tenant", "zeta") ]);
  (match log_of_records [ ([ (5, 6) ], [ 30 ]) ] with
  | extra -> SL.iter extra (fun ~lbr ~lbr_len ~stack ~stack_len ->
      SL.add log ~lbr ~lbr_len ~stack ~stack_len));
  let blob = SL.encode ~chunk:2 log in
  Alcotest.(check int) "labeled log frames as v3" 3
    (match SL.framing_version blob with Ok v -> v | Error _ -> -1);
  for i = 0 to String.length blob - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string blob in
      Bytes.set b i (Char.chr (Char.code blob.[i] lxor (1 lsl bit)));
      match SL.decode (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bit flip at byte %d bit %d silently accepted" i bit
      | exception e ->
          Alcotest.failf "bit flip at byte %d bit %d escaped the typed error channel: %s"
            i bit (Printexc.to_string e)
    done
  done;
  (* a v3 frame whose label section is missing entirely must be rejected *)
  let plain = SL.unlabeled log in
  let forced = SL.encode ~frame:`V3 plain in
  (match SL.decode forced with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "forced v3 rejected: %s" (Wire.error_to_string e));
  let v2_bytes_as_v3 =
    (* re-stamp the version byte of the v2 blob to 3: structurally a v3
       frame with no trailing label section *)
    let v2 = SL.encode plain in
    let b = Bytes.of_string v2 in
    Bytes.set b (String.length SL.magic) '\x03';
    Bytes.to_string b
  in
  match SL.decode v2_bytes_as_v3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "v3 frame without a label section accepted"

(* --- fingerprints ----------------------------------------------------- *)

let test_fingerprint_delta () =
  let mk c =
    let t = PP.create () in
    let fe = PP.get_or_add t (g "a") ~name:"a" in
    PP.add_probe fe 1 c;
    let fe_b = PP.get_or_add t (g "b") ~name:"b" in
    PP.add_probe fe_b 1 5L;
    P.Text_io.Probe_prof t
  in
  let p1 = mk 10L and p2 = mk 10L and p3 = mk 11L in
  Alcotest.(check bool) "equal profiles, equal merged fp" true
    (Int64.equal (P.Fingerprint.merged p1) (P.Fingerprint.merged p2));
  Alcotest.(check bool) "drift changes merged fp" false
    (Int64.equal (P.Fingerprint.merged p1) (P.Fingerprint.merged p3));
  (* binary round-trip preserves fingerprints *)
  match B.decode (B.encode p1) with
  | Ok p1' ->
      Alcotest.(check bool) "fp survives binary round-trip" true
        (Int64.equal (P.Fingerprint.merged p1) (P.Fingerprint.merged p1'))
  | Error e -> Alcotest.fail (Wire.error_to_string e)

let suite =
  ( "binary-io",
    [
      Alcotest.test_case "empty profiles round-trip" `Quick test_empty_profiles;
      Alcotest.test_case "zero and max-int counters" `Quick test_extreme_counters;
      Alcotest.test_case "format sniffing and Io.read" `Quick test_sniffing;
      Alcotest.test_case "future versions rejected" `Quick test_version_rejection;
      Alcotest.test_case "v1 blobs keep decoding" `Quick test_v1_compat;
      Alcotest.test_case "corruption: bit flips" `Quick test_bit_flips;
      Alcotest.test_case "corruption: truncations" `Quick test_truncations;
      Alcotest.test_case "corruption: extensions" `Quick test_extensions;
      Alcotest.test_case "corruption: garbage input" `Quick test_garbage;
      Alcotest.test_case "corruption: ctx node counts" `Quick test_node_count_bounds;
      Alcotest.test_case "sample log edge cases" `Quick test_sample_log_edges;
      Alcotest.test_case "sample log corruption" `Quick test_sample_log_corruption;
      Alcotest.test_case "labeled log corruption" `Quick test_labeled_log_corruption;
      Alcotest.test_case "fingerprints and deltas" `Quick test_fingerprint_delta;
      QCheck_alcotest.to_alcotest prop_probe_binary_roundtrip;
      QCheck_alcotest.to_alcotest prop_line_binary_roundtrip;
      QCheck_alcotest.to_alcotest prop_ctx_binary_roundtrip;
      QCheck_alcotest.to_alcotest prop_sample_log_roundtrip;
    ] )
