(* Profile data structures: line profiles, probe profiles, context trie. *)
module Ir = Csspgo_ir
module P = Csspgo_profile
module LP = P.Line_profile
module PP = P.Probe_profile
module CP = P.Ctx_profile

let g name = Ir.Guid.of_name name

(* Per-shape wrappers over the unified [Text_io] surface: serialization
   always goes through [to_string]/[read]; these just wrap/unwrap the
   shape constructors for the round-trip tests below. *)
let probe_to_string t = P.Text_io.to_string (P.Text_io.Probe_prof t)
let line_to_string t = P.Text_io.to_string (P.Text_io.Line_prof t)
let ctx_to_string t = P.Text_io.to_string (P.Text_io.Ctx_prof t)

let read_probe s =
  match P.Text_io.read P.Text_io.Probe s with
  | P.Text_io.Probe_prof t -> t
  | _ -> assert false

let read_line s =
  match P.Text_io.read P.Text_io.Line s with
  | P.Text_io.Line_prof t -> t
  | _ -> assert false

let read_ctx s =
  match P.Text_io.read P.Text_io.Ctx s with
  | P.Text_io.Ctx_prof t -> t
  | _ -> assert false

let test_line_profile_max () =
  let t = LP.create () in
  let fe = LP.get_or_add t (g "f") ~name:"f" in
  LP.set_line_max fe (3, 0) 10L;
  LP.set_line_max fe (3, 0) 7L;
  Alcotest.(check int64) "max keeps 10" 10L (LP.line_count fe (3, 0));
  LP.set_line_max fe (3, 0) 12L;
  Alcotest.(check int64) "max raises to 12" 12L (LP.line_count fe (3, 0));
  LP.add_call fe (3, 0) (g "callee") 5L;
  LP.add_call fe (3, 0) (g "callee") 6L;
  Alcotest.(check (list (pair int64 int64))) "call counts sum"
    [ (g "callee", 11L) ]
    (LP.call_counts fe (3, 0))

let test_probe_profile_sum () =
  let t = PP.create () in
  let fe = PP.get_or_add t (g "f") ~name:"f" in
  PP.add_probe fe 1 10L;
  PP.add_probe fe 1 7L;
  Alcotest.(check int64) "probes sum" 17L (PP.probe_count fe 1);
  Alcotest.(check int64) "total" 17L fe.PP.fe_total

let mk_trie () =
  let t = CP.create () in
  (* main -> (site 3) foo -> (site 2) bar, plus base foo *)
  let path =
    [ ((g "main", 3), g "foo", "foo"); ((g "foo", 2), g "bar", "bar") ]
  in
  let bar_node = Option.get (CP.node_at t ~path) in
  PP.add_probe bar_node.CP.n_prof 1 100L;
  let foo_node = Option.get (CP.node_at t ~path:[ ((g "main", 3), g "foo", "foo") ]) in
  PP.add_probe foo_node.CP.n_prof 1 50L;
  let base_foo = CP.base t (g "foo") ~name:"foo" in
  PP.add_probe base_foo.CP.n_prof 1 7L;
  t

let test_trie_structure () =
  let t = mk_trie () in
  Alcotest.(check int) "node count" 4 (CP.n_nodes t);
  Alcotest.(check int64) "total samples" 157L (CP.total_samples t);
  let found =
    CP.find_node t ~leaf:(g "bar") (fun ctx ->
        ctx = [ (g "main", 3); (g "foo", 2) ])
  in
  Alcotest.(check bool) "deep context resolvable" true (found <> None)

let test_promote_to_base () =
  let t = mk_trie () in
  let main = CP.base t (g "main") ~name:"main" in
  CP.promote_to_base t ~parent:main ~key:(3, g "foo");
  (* foo's context merged into base foo; bar context re-rooted under base foo *)
  let base_foo = CP.base t (g "foo") ~name:"foo" in
  Alcotest.(check int64) "merged counts" 57L (PP.probe_count base_foo.CP.n_prof 1);
  Alcotest.(check bool) "bar now under base foo" true
    (Hashtbl.mem base_foo.CP.n_children (2, g "bar"));
  (* no double counting on repeated promotion *)
  CP.promote_to_base t ~parent:main ~key:(3, g "foo");
  Alcotest.(check int64) "idempotent" 57L (PP.probe_count base_foo.CP.n_prof 1);
  Alcotest.(check int64) "conserved" 157L (CP.total_samples t)

let test_trim_cold_conserves () =
  let t = mk_trie () in
  let before = CP.total_samples t in
  let removed = CP.trim_cold t ~threshold:Int64.max_int in
  Alcotest.(check bool) "contexts removed" true (removed > 0);
  Alcotest.(check int64) "samples conserved" before (CP.total_samples t);
  (* everything is now in base profiles *)
  CP.iter_nodes t (fun ctx node ->
      if ctx <> [] && Int64.compare node.CP.n_prof.PP.fe_total 0L > 0 then
        Alcotest.fail "non-base counts remain after full trim")

let test_trim_cold_keeps_hot () =
  let t = mk_trie () in
  let removed = CP.trim_cold t ~threshold:60L in
  (* bar subtree total = 100 stays; foo node itself is parent of bar so its
     subtree total is 150 -> stays *)
  ignore removed;
  Alcotest.(check bool) "hot context survives" true
    (CP.find_node t ~leaf:(g "bar") (fun ctx -> List.length ctx = 2) <> None)

let test_size_bytes_grows () =
  let t = mk_trie () in
  let s1 = CP.size_bytes t in
  let deep_path =
    [ ((g "main", 3), g "foo", "foo");
      ((g "foo", 2), g "bar", "bar");
      ((g "bar", 9), g "baz", "baz") ]
  in
  let n = Option.get (CP.node_at t ~path:deep_path) in
  PP.add_probe n.CP.n_prof 1 1L;
  Alcotest.(check bool) "size grows with contexts" true (CP.size_bytes t > s1)

(* --- text serialization round trips --------------------------------- *)

let test_probe_roundtrip () =
  let t = PP.create () in
  let fe = PP.get_or_add t (g "f") ~name:"f" in
  fe.PP.fe_head <- 12L;
  fe.PP.fe_checksum <- 0xDEADL;
  PP.add_probe fe 1 100L;
  PP.add_probe fe 3 7L;
  PP.add_call fe 2 (g "callee") 55L;
  let s = probe_to_string t in
  let t2 = read_probe s in
  let fe2 = Option.get (PP.get t2 (g "f")) in
  Alcotest.(check int64) "head" 12L fe2.PP.fe_head;
  Alcotest.(check int64) "checksum" 0xDEADL fe2.PP.fe_checksum;
  Alcotest.(check int64) "probe 1" 100L (PP.probe_count fe2 1);
  Alcotest.(check int64) "probe 3" 7L (PP.probe_count fe2 3);
  Alcotest.(check (list (pair int64 int64))) "calls" [ (g "callee", 55L) ]
    (PP.call_counts fe2 2);
  (* stable: serializing again yields identical text *)
  Alcotest.(check string) "canonical" s (probe_to_string t2)

let test_ctx_roundtrip () =
  let t = mk_trie () in
  (* add an inline mark and a head count for coverage *)
  (match CP.find_node t ~leaf:(g "bar") (fun ctx -> List.length ctx = 2) with
  | Some n ->
      n.CP.n_inlined <- true;
      n.CP.n_prof.PP.fe_head <- 9L
  | None -> Alcotest.fail "bar context missing");
  let s = CP.total_samples t in
  let text = ctx_to_string t in
  let t2 = read_ctx text in
  Alcotest.(check int64) "samples preserved" s (CP.total_samples t2);
  Alcotest.(check int) "node count preserved" (CP.n_nodes t) (CP.n_nodes t2);
  (match CP.find_node t2 ~leaf:(g "bar") (fun ctx -> List.length ctx = 2) with
  | Some n ->
      Alcotest.(check bool) "inline mark preserved" true n.CP.n_inlined;
      Alcotest.(check int64) "head preserved" 9L n.CP.n_prof.PP.fe_head
  | None -> Alcotest.fail "bar context lost");
  Alcotest.(check string) "canonical" text (ctx_to_string t2)

let test_line_roundtrip () =
  let t = LP.create () in
  let fe = LP.get_or_add t (g "f") ~name:"f" in
  fe.LP.fe_head <- 4L;
  LP.set_line_max fe (2, 0) 40L;
  LP.set_line_max fe (3, 1) 7L;
  LP.add_call fe (2, 0) (g "callee") 33L;
  let text = line_to_string t in
  let t2 = read_line text in
  let fe2 = Option.get (LP.get t2 (g "f")) in
  Alcotest.(check int64) "line 2.0" 40L (LP.line_count fe2 (2, 0));
  Alcotest.(check int64) "line 3.1" 7L (LP.line_count fe2 (3, 1));
  Alcotest.(check int64) "head" 4L fe2.LP.fe_head;
  Alcotest.(check string) "canonical" text (line_to_string t2)

let test_text_io_errors () =
  let fails s = match read_probe s with
    | exception P.Text_io.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "orphan probe" true (fails "probe 1 5");
  Alcotest.(check bool) "junk" true (fails "wibble");
  Alcotest.(check bool) "bad int" true
    (fails "function f guid=ff total=0 head=0 checksum=0\n probe x 5");
  (* comments and blank lines are fine *)
  Alcotest.(check bool) "comments ok" false
    (fails "# header\n\nfunction f guid=ff total=0 head=0 checksum=0\n probe 1 5 # hot")

(* --- the unified reader/writer interface ---------------------------- *)

let test_unified_detect_and_roundtrip () =
  let probe =
    let t = PP.create () in
    let fe = PP.get_or_add t (g "f") ~name:"f" in
    fe.PP.fe_checksum <- 0xBEEFL;
    PP.add_probe fe 1 10L;
    P.Text_io.Probe_prof t
  in
  let line =
    let t = LP.create () in
    let fe = LP.get_or_add t (g "f") ~name:"f" in
    LP.set_line_max fe (1, 0) 5L;
    P.Text_io.Line_prof t
  in
  let ctx = P.Text_io.Ctx_prof (mk_trie ()) in
  List.iter
    (fun p ->
      let kn = P.Text_io.kind_name (P.Text_io.kind_of p) in
      let s = P.Text_io.to_string p in
      (* sniffing recovers the kind without being told *)
      Alcotest.(check (option string)) (kn ^ " sniffed") (Some kn)
        (Option.map P.Text_io.kind_name (P.Text_io.detect_kind s));
      let p2 = P.Text_io.of_string s in
      Alcotest.(check string) (kn ^ " kind stable") kn
        (P.Text_io.kind_name (P.Text_io.kind_of p2));
      Alcotest.(check string) (kn ^ " canonical") s (P.Text_io.to_string p2);
      Alcotest.(check int64) (kn ^ " samples") (P.Text_io.total_samples p)
        (P.Text_io.total_samples p2))
    [ probe; line; ctx ]

let test_unified_empty_input () =
  Alcotest.(check (option string)) "no records -> no kind" None
    (Option.map P.Text_io.kind_name (P.Text_io.detect_kind "# nothing\n"));
  match P.Text_io.of_string "# nothing\n" with
  | exception P.Text_io.Parse_error _ -> ()
  | _ -> Alcotest.fail "recordless input must not parse"

let prop_probe_roundtrip =
  QCheck.Test.make ~name:"probe profile text round-trips" ~count:100
    QCheck.(list (pair (int_range 1 40) (int_range 1 100000)))
    (fun pairs ->
      let t = PP.create () in
      let fe = PP.get_or_add t (g "f") ~name:"f" in
      List.iter (fun (id, c) -> PP.add_probe fe id (Int64.of_int c)) pairs;
      let t2 = read_probe (probe_to_string t) in
      PP.total_samples t2 = PP.total_samples t)

(* Generator-driven round-trips over whole profiles: build a random
   multi-function profile through the public API, then require the
   canonical text to survive print -> parse -> print unchanged (the
   writers sort, so the text form is canonical and string equality is
   full structural equality). Empty profiles arise from the empty spec
   list; the context property also exercises cold-trimmed tries. *)

let fname i = Printf.sprintf "fn%d" i

let fentry_spec_gen =
  QCheck.(
    pair
      (pair (int_range 0 5) (int_range 0 1000))
      (pair
         (small_list (pair (int_range 1 60) (int_range 1 100_000)))
         (small_list (triple (int_range 1 60) (int_range 0 5) (int_range 1 5000)))))

let ctx_spec_gen =
  (* one context: a root function, a chain of (callsite, callee) frames,
     probe counts at the leaf, and the pre-inliner mark *)
  QCheck.(
    pair
      (pair (int_range 0 3) (small_list (pair (int_range 1 9) (int_range 0 3))))
      (pair (small_list (pair (int_range 1 30) (int_range 1 10_000))) bool))

(* Profiles built from the generators' specs, shared with the binary
   codec and merge suites. *)
let build_probe specs =
  let t = PP.create () in
  List.iter
    (fun ((fi, head), (probes, calls)) ->
      let fe = PP.get_or_add t (g (fname fi)) ~name:(fname fi) in
      fe.PP.fe_head <- Int64.of_int head;
      fe.PP.fe_checksum <- Int64.of_int (fi * 7919);
      List.iter (fun (id, c) -> PP.add_probe fe id (Int64.of_int c)) probes;
      List.iter
        (fun (site, callee, c) ->
          PP.add_call fe site (g (fname callee)) (Int64.of_int c))
        calls)
    specs;
  t

let build_line specs =
  let t = LP.create () in
  List.iter
    (fun ((fi, head), (lines, calls)) ->
      let fe = LP.get_or_add t (g (fname fi)) ~name:(fname fi) in
      fe.LP.fe_head <- Int64.of_int head;
      List.iter
        (fun (l, c) -> LP.add_line fe (l, l mod 3) (Int64.of_int c))
        lines;
      List.iter
        (fun (l, callee, c) ->
          LP.add_call fe (l, l mod 3) (g (fname callee)) (Int64.of_int c))
        calls)
    specs;
  t

let build_ctx specs =
  let t = CP.create () in
  List.iter
    (fun ((root_fi, frames), (probes, inlined)) ->
      let node =
        match frames with
        | [] -> CP.base t (g (fname root_fi)) ~name:(fname root_fi)
        | _ ->
            let path =
              List.rev
                (fst
                   (List.fold_left
                      (fun (acc, parent) (site, child_fi) ->
                        ( ((g (fname parent), site), g (fname child_fi),
                           fname child_fi)
                          :: acc,
                          child_fi ))
                      ([], root_fi) frames))
            in
            Option.get (CP.node_at t ~path)
      in
      node.CP.n_inlined <- inlined;
      List.iter
        (fun (id, c) -> PP.add_probe node.CP.n_prof id (Int64.of_int c))
        probes)
    specs;
  t

(* The context property trims [build_ctx specs] at [trim], if any. *)
let build_trimmed_ctx (specs, trim) =
  let t = build_ctx specs in
  (match trim with
  | Some threshold -> ignore (CP.trim_cold t ~threshold:(Int64.of_int threshold))
  | None -> ());
  t

let prop_probe_profile_roundtrip =
  QCheck.Test.make ~name:"probe profiles round-trip (multi-function)" ~count:200
    QCheck.(small_list fentry_spec_gen)
    (fun specs ->
      let s = probe_to_string (build_probe specs) in
      String.equal s (probe_to_string (read_probe s)))

let prop_line_profile_roundtrip =
  QCheck.Test.make ~name:"line profiles round-trip (multi-function)" ~count:200
    QCheck.(small_list fentry_spec_gen)
    (fun specs ->
      let s = line_to_string (build_line specs) in
      String.equal s (line_to_string (read_line s)))

let prop_ctx_profile_roundtrip =
  QCheck.Test.make ~name:"context profiles round-trip (incl. cold-trimmed)"
    ~count:200
    QCheck.(pair (small_list ctx_spec_gen) (option (int_range 1 5000)))
    (fun spec ->
      let s = ctx_to_string (build_trimmed_ctx spec) in
      String.equal s (ctx_to_string (read_ctx s)))

(* --- one-pass trim against the seed's re-walking trim ----------------- *)

(* The seed [trim_cold], kept only here as the reference: it recomputes
   every child's subtree total at every level it descends. *)
let reference_trim t ~threshold =
  let rec subtree_total n =
    Hashtbl.fold
      (fun _ c acc -> Int64.add acc (subtree_total c))
      n.CP.n_children n.CP.n_prof.PP.fe_total
  in
  let removed = ref 0 in
  let rec sweep node =
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) node.CP.n_children [] in
    List.iter
      (fun key ->
        match Hashtbl.find_opt node.CP.n_children key with
        | None -> ()
        | Some child ->
            if Int64.compare (subtree_total child) threshold < 0 then begin
              CP.promote_to_base t ~parent:node ~key;
              incr removed
            end
            else sweep child)
      (List.sort compare keys)
  in
  let continue_ = ref true in
  while !continue_ do
    let before = !removed in
    let roots = Ir.Guid.Tbl.fold (fun g _ acc -> g :: acc) t.CP.roots [] in
    List.iter
      (fun g ->
        match Ir.Guid.Tbl.find_opt t.CP.roots g with
        | Some root -> sweep root
        | None -> ())
      (List.sort Ir.Guid.compare roots);
    continue_ := !removed > before
  done;
  !removed

(* A self-recursive chain: [depth] frames of [fn fi] calling itself at
   [site] under a root, [count] samples and one call edge at every level. *)
let add_chain t ~root ~fi ~site ~depth ~count =
  let rec go parent d =
    if d > 0 then begin
      let n = CP.attach t ~parent:(Some parent) ~site (g (fname fi)) ~name:(fname fi) in
      PP.add_probe n.CP.n_prof 1 count;
      PP.add_call n.CP.n_prof site (g (fname fi)) count;
      go n (d - 1)
    end
  in
  go (CP.base t (g (fname root)) ~name:(fname root)) depth

let trim_spec_gen =
  QCheck.(
    triple
      (list_of_size
         Gen.(0 -- 30)
         (pair
            (pair (int_range 0 3) (list_of_size Gen.(0 -- 8) (pair (int_range 1 9) (int_range 0 3))))
            (list_of_size Gen.(0 -- 6) (pair (int_range 1 30) (int_range 0 2_000)))))
      (list_of_size
         Gen.(0 -- 6)
         (pair (pair (int_range 0 3) (int_range 0 3))
            (pair (int_range 1 9) (pair (int_range 1 40) (int_range 0 500)))))
      (oneof
         [
           always 0L;
           always Int64.max_int;
           map Int64.of_int (int_range 1 200);
           map Int64.of_int (int_range 1 60_000);
         ]))

let build_trim_trie (contexts, chains) =
  let t = CP.create () in
  List.iter
    (fun ((root_fi, frames), probes) ->
      let node =
        List.fold_left
          (fun parent (site, child_fi) ->
            CP.attach t ~parent:(Some parent) ~site (g (fname child_fi)) ~name:(fname child_fi))
          (CP.base t (g (fname root_fi)) ~name:(fname root_fi))
          frames
      in
      List.iter
        (fun (id, c) ->
          PP.add_probe node.CP.n_prof id (Int64.of_int c);
          PP.add_call node.CP.n_prof id (g (fname (id mod 4))) (Int64.of_int c))
        probes)
    contexts;
  List.iter
    (fun ((root, fi), (site, (depth, count))) ->
      add_chain t ~root ~fi ~site ~depth ~count:(Int64.of_int count))
    chains;
  t

(* Structural equality, linear in the nodes: a deep chain's text grows
   with the square of its depth. *)
let rec same_node (a : CP.node) (b : CP.node) =
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let calls fe = List.map (fun (s, tbl) -> (s, sorted tbl)) (sorted fe.PP.fe_calls) in
  Ir.Guid.equal a.CP.n_func b.CP.n_func
  && String.equal a.CP.n_name b.CP.n_name
  && a.CP.n_inlined = b.CP.n_inlined
  && Int64.equal a.CP.n_prof.PP.fe_total b.CP.n_prof.PP.fe_total
  && Int64.equal a.CP.n_prof.PP.fe_head b.CP.n_prof.PP.fe_head
  && sorted a.CP.n_prof.PP.fe_probes = sorted b.CP.n_prof.PP.fe_probes
  && calls a.CP.n_prof = calls b.CP.n_prof
  && Hashtbl.length a.CP.n_children = Hashtbl.length b.CP.n_children
  && Hashtbl.fold
       (fun k c ok ->
         ok
         &&
         match Hashtbl.find_opt b.CP.n_children k with
         | Some c' -> same_node c c'
         | None -> false)
       a.CP.n_children true

let same_trie (a : CP.t) (b : CP.t) =
  Ir.Guid.Tbl.length a.CP.roots = Ir.Guid.Tbl.length b.CP.roots
  && Ir.Guid.Tbl.fold
       (fun g r ok ->
         ok
         &&
         match Ir.Guid.Tbl.find_opt b.CP.roots g with
         | Some r' -> same_node r r'
         | None -> false)
       a.CP.roots true

let prop_trim_matches_reference =
  QCheck.Test.make ~name:"one-pass trim matches the re-walking trim" ~count:200
    trim_spec_gen (fun (contexts, chains, threshold) ->
      let t = build_trim_trie (contexts, chains) in
      let expect = read_ctx (ctx_to_string t) in
      let expect_removed = reference_trim expect ~threshold in
      let removed = CP.trim_cold t ~threshold in
      expect_removed = removed && String.equal (ctx_to_string expect) (ctx_to_string t))

(* Recursion 5,000 frames deep. Fully trimmed (the Driver's path without
   the pre-inliner), the chain unwinds one frame per fixpoint pass and must
   match the reference. With a cold side call under every frame and a hot
   leaf, one sweep walks the whole chain promoting at every level; the
   reference needs seconds there, so the expected trie is spelled out. *)
let test_trim_deep_recursion () =
  let chain () =
    let t = CP.create () in
    add_chain t ~root:0 ~fi:1 ~site:4 ~depth:5_000 ~count:1L;
    t
  in
  let t = chain () and expect = chain () in
  let expect_removed = reference_trim expect ~threshold:Int64.max_int in
  Alcotest.(check int) "full trim removed" expect_removed
    (CP.trim_cold t ~threshold:Int64.max_int);
  Alcotest.(check bool) "full trim same trie" true (same_trie expect t);
  let t = chain () in
  let rec side n =
    let s = CP.attach t ~parent:(Some n) ~site:9 (g "side") ~name:"side" in
    PP.add_probe s.CP.n_prof 1 1L;
    match Hashtbl.find_opt n.CP.n_children (4, g (fname 1)) with
    | Some c -> side c
    | None -> PP.add_probe n.CP.n_prof 2 100_000L
  in
  side (CP.base t (g (fname 0)) ~name:(fname 0));
  let total = CP.total_samples t in
  Alcotest.(check int) "side calls removed" 5_001 (CP.trim_cold t ~threshold:3L);
  Alcotest.(check int) "chain kept" 5_002 (CP.n_nodes t);
  Alcotest.(check int64) "samples conserved" total (CP.total_samples t);
  Alcotest.(check int64) "side base" 5_001L (CP.base t (g "side") ~name:"side").CP.n_prof.PP.fe_total

(* The one count merge keeps every shape's total equal to the sum of its
   count table: a merge of [b] into [a] at [weight] leaves [a]'s total at
   its own plus [weight] times [b]'s. Probe entries merge at weight 1, as
   a trie promotion merges them; line entries at weight 3. *)
let prop_merge_conserves name sh key ~weight =
  QCheck.Test.make ~name:("count merge conserves " ^ name ^ " totals") ~count:100
    QCheck.(list (pair (int_range 1 20) (int_range 1 1000)))
    (fun pairs ->
      let a = P.Counts.fresh sh 8 and b = P.Counts.fresh sh 8 in
      List.iteri
        (fun i (id, c) ->
          P.Counts.add sh (if i mod 2 = 0 then a else b) (key id) (Int64.of_int c))
        pairs;
      let total =
        Int64.add (sh.P.Counts.total a) (Int64.mul weight (sh.P.Counts.total b))
      in
      P.Counts.merge sh ~into:a ~weight b;
      let sum = Hashtbl.fold (fun _ c acc -> Int64.add acc c) (sh.P.Counts.counts a) 0L in
      Int64.equal (sh.P.Counts.total a) total && Int64.equal sum total)

let prop_merge_conserves_probe = prop_merge_conserves "probe" PP.shape Fun.id ~weight:1L
let prop_merge_conserves_line =
  prop_merge_conserves "line" LP.shape (fun l -> (l, l mod 3)) ~weight:3L

let suite =
  ( "profile",
    [
      Alcotest.test_case "line profile max heuristic" `Quick test_line_profile_max;
      Alcotest.test_case "probe profile sums" `Quick test_probe_profile_sum;
      Alcotest.test_case "trie structure" `Quick test_trie_structure;
      Alcotest.test_case "promote to base" `Quick test_promote_to_base;
      Alcotest.test_case "trim cold conserves" `Quick test_trim_cold_conserves;
      Alcotest.test_case "trim keeps hot" `Quick test_trim_cold_keeps_hot;
      Alcotest.test_case "size estimate" `Quick test_size_bytes_grows;
      Alcotest.test_case "probe text roundtrip" `Quick test_probe_roundtrip;
      Alcotest.test_case "ctx text roundtrip" `Quick test_ctx_roundtrip;
      Alcotest.test_case "line text roundtrip" `Quick test_line_roundtrip;
      Alcotest.test_case "text parse errors" `Quick test_text_io_errors;
      Alcotest.test_case "unified io detects and round-trips" `Quick
        test_unified_detect_and_roundtrip;
      Alcotest.test_case "unified io rejects recordless input" `Quick
        test_unified_empty_input;
      QCheck_alcotest.to_alcotest prop_probe_roundtrip;
      QCheck_alcotest.to_alcotest prop_probe_profile_roundtrip;
      QCheck_alcotest.to_alcotest prop_line_profile_roundtrip;
      QCheck_alcotest.to_alcotest prop_ctx_profile_roundtrip;
      QCheck_alcotest.to_alcotest prop_merge_conserves_probe;
      QCheck_alcotest.to_alcotest prop_merge_conserves_line;
      QCheck_alcotest.to_alcotest prop_trim_matches_reference;
      Alcotest.test_case "trim a 5,000-deep recursive chain" `Quick
        test_trim_deep_recursion;
    ] )
