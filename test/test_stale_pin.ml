(* Stale matching pinned byte for byte. adretriever's and haas's sampled
   profiles — the line profile of an AutoFDO build, the context trie and
   flat probe profile of a full CSSPGO build — are each matched onto four
   drifted revisions ([Drift] seeds 3 and 11 at 2 and 6 edits). Every
   case digests the matched profile's canonical text, the report, and
   [Fingerprint.per_func] of the input and of the output. The merged
   fingerprints of the three golden profile texts are pinned as values. *)
module P = Csspgo_profile
module Core = Csspgo_core
module SM = Core.Stale_match
module D = Core.Driver
module W = Csspgo_workloads
module Fl = Csspgo_fleet
module Ir = Csspgo_ir
module Fnv = Csspgo_support.Fnv

let hex s = Printf.sprintf "%016Lx" (Fnv.hash_string s)

let per_func_text p =
  String.concat ""
    (List.map (fun (g, d) -> Printf.sprintf "%Lx %Lx\n" g d) (P.Fingerprint.per_func p))

(* The stale battery's memoized profiles, each tagged by its kind as the
   Driver's correlate memo keys name it. *)
let profiles_of w =
  List.map
    (fun prof ->
      let tag =
        match P.Text_io.kind_of prof with
        | P.Text_io.Line -> "lines"
        | P.Text_io.Probe -> "probes"
        | P.Text_io.Ctx -> "ctx"
      in
      (tag, prof))
    (Test_stale.workload_profiles w)

let drifts = [ (3L, 2); (3L, 6); (11L, 2); (11L, 6) ]

let workload_case (w : D.workload) =
  ( w.D.w_name,
    fun () ->
      List.concat_map
        (fun (tag, prof) ->
          let key = tag ^ " " in
          let probes = P.Text_io.kind_of prof <> P.Text_io.Line in
          (key ^ "input", per_func_text prof)
          :: List.concat_map
               (fun (seed, edits) ->
                 let src = (W.Drift.apply ~seed ~edits w.D.w_source).W.Drift.dr_source in
                 let matched, report =
                   Test_stale.match_any ~target:(Test_stale.target_ir ~probes src) prof
                 in
                 let key = Printf.sprintf "%s%Ld/%d " key seed edits in
                 [
                   (key ^ "text", P.Text_io.to_string matched);
                   (key ^ "report", SM.report_to_string report);
                   (key ^ "output", per_func_text matched);
                 ])
               drifts)
        (profiles_of w) )

(* Digests keyed by workload and aspect, recorded while [site_mapping]
   and the line matcher each wrote their own callee-anchor alignment and
   the text, binary and fingerprint writers each sorted entries
   themselves. *)
let pinned =
  [
    ("adretriever lines input", "3f67cbefcacc3a9e");
    ("adretriever lines 3/2 text", "a093d7ba0351840e");
    ("adretriever lines 3/2 report", "3ab7173ebf7d5967");
    ("adretriever lines 3/2 output", "881633e29a85cedd");
    ("adretriever lines 3/6 text", "a093d7ba0351840e");
    ("adretriever lines 3/6 report", "3ab7173ebf7d5967");
    ("adretriever lines 3/6 output", "881633e29a85cedd");
    ("adretriever lines 11/2 text", "f02f1cdb1e54d51c");
    ("adretriever lines 11/2 report", "3ab7173ebf7d5967");
    ("adretriever lines 11/2 output", "d24d13cb0a9730f5");
    ("adretriever lines 11/6 text", "4d46986da0b282b0");
    ("adretriever lines 11/6 report", "6683c92ca0c21fdd");
    ("adretriever lines 11/6 output", "b8bff116e1f22eaa");
    ("adretriever ctx input", "b3f10fc1f63b5691");
    ("adretriever ctx 3/2 text", "da5b794ac05c2b58");
    ("adretriever ctx 3/2 report", "b43053a6aada21cf");
    ("adretriever ctx 3/2 output", "dc8a6f6a756eb111");
    ("adretriever ctx 3/6 text", "da5b794ac05c2b58");
    ("adretriever ctx 3/6 report", "b43053a6aada21cf");
    ("adretriever ctx 3/6 output", "dc8a6f6a756eb111");
    ("adretriever ctx 11/2 text", "a793640d7069134a");
    ("adretriever ctx 11/2 report", "efc0ecfecef03134");
    ("adretriever ctx 11/2 output", "b3f10fc1f63b5691");
    ("adretriever ctx 11/6 text", "da5b794ac05c2b58");
    ("adretriever ctx 11/6 report", "b43053a6aada21cf");
    ("adretriever ctx 11/6 output", "dc8a6f6a756eb111");
    ("adretriever probes input", "a55d71c37e5a2e43");
    ("adretriever probes 3/2 text", "536ec8e7ad74343d");
    ("adretriever probes 3/2 report", "b480cc225af87b23");
    ("adretriever probes 3/2 output", "1fa073dcdd4b82d0");
    ("adretriever probes 3/6 text", "536ec8e7ad74343d");
    ("adretriever probes 3/6 report", "b480cc225af87b23");
    ("adretriever probes 3/6 output", "1fa073dcdd4b82d0");
    ("adretriever probes 11/2 text", "b3096ff99e586bcd");
    ("adretriever probes 11/2 report", "3130798d2aa8cc40");
    ("adretriever probes 11/2 output", "a55d71c37e5a2e43");
    ("adretriever probes 11/6 text", "536ec8e7ad74343d");
    ("adretriever probes 11/6 report", "b480cc225af87b23");
    ("adretriever probes 11/6 output", "1fa073dcdd4b82d0");
    ("haas lines input", "ffc6682c18859dc2");
    ("haas lines 3/2 text", "cd41d390b7f42ba1");
    ("haas lines 3/2 report", "7f75b876ee2ac776");
    ("haas lines 3/2 output", "104df43f400024c4");
    ("haas lines 3/6 text", "592cd87dabdda244");
    ("haas lines 3/6 report", "e9ca98305ef01338");
    ("haas lines 3/6 output", "8ba13ee1381e9dad");
    ("haas lines 11/2 text", "be7691d2f42bdec0");
    ("haas lines 11/2 report", "df444998493df089");
    ("haas lines 11/2 output", "eb32cb862399879e");
    ("haas lines 11/6 text", "be7691d2f42bdec0");
    ("haas lines 11/6 report", "df444998493df089");
    ("haas lines 11/6 output", "eb32cb862399879e");
    ("haas ctx input", "e64ee6783fc319b4");
    ("haas ctx 3/2 text", "12136bb723936856");
    ("haas ctx 3/2 report", "69fa1a283cddd4f3");
    ("haas ctx 3/2 output", "e64ee6783fc319b4");
    ("haas ctx 3/6 text", "b0e3bedf2cc2dd09");
    ("haas ctx 3/6 report", "ba395df6b7493660");
    ("haas ctx 3/6 output", "8f792c7eef035398");
    ("haas ctx 11/2 text", "ffb042d33d119e93");
    ("haas ctx 11/2 report", "d712984884cc70d7");
    ("haas ctx 11/2 output", "73edd5589e4aa9d1");
    ("haas ctx 11/6 text", "5a4028eea4235fd9");
    ("haas ctx 11/6 report", "d712984884cc70d7");
    ("haas ctx 11/6 output", "cab4a3ba39810509");
    ("haas probes input", "97c63c38c2a04597");
    ("haas probes 3/2 text", "be8bfe2a5dd56309");
    ("haas probes 3/2 report", "3dab75ac4d3bbd63");
    ("haas probes 3/2 output", "97c63c38c2a04597");
    ("haas probes 3/6 text", "e1c2750b87ece048");
    ("haas probes 3/6 report", "07cb7fe8909842c3");
    ("haas probes 3/6 output", "c3632b7373ee9eb5");
    ("haas probes 11/2 text", "35a145ab9b608415");
    ("haas probes 11/2 report", "bec9227a2530d77d");
    ("haas probes 11/2 output", "e3604069bb537557");
    ("haas probes 11/6 text", "35a145ab9b608415");
    ("haas probes 11/6 report", "bec9227a2530d77d");
    ("haas probes 11/6 output", "e3604069bb537557");
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

(* [Fingerprint.merged] of each golden profile text. *)
let golden_merged =
  [
    ("probe.prof", "54bbb0b0ccbe39e7");
    ("ctx.prof", "a93fd0c9251fff35");
    ("line.prof", "63834122162f41e4");
  ]

(* The suite runs from the build's test directory under [dune runtest]
   and from the repository root when the binary is started by hand. *)
let golden file =
  let local = Filename.concat "golden" file in
  if Sys.file_exists local then local else Filename.concat "test/golden" file

let test_golden_merged () =
  List.iter
    (fun (file, want) ->
      let text = In_channel.with_open_bin (golden file) In_channel.input_all in
      Alcotest.(check string) (file ^ " merged")
        want
        (Printf.sprintf "%016Lx" (P.Fingerprint.merged (P.Text_io.of_string text))))
    golden_merged

(* Hash-table iteration order pinned. Canonical text sorts every table,
   so it cannot see the order [Hashtbl.iter] visits a profile in, yet the
   pre-inliner's [top_down_order] and the probe matcher read that order.
   Each rendering walks the tables themselves: a trie's roots and every
   node's children, a flat profile's functions, and each entry's count
   table and call tables (outer and inner), all in [Hashtbl.iter] order.
   The cases cover every path that builds or rebuilds those tables from
   haas: the context correlation (untrimmed), [Ctx_profile.copy] and
   [trim_cold], [Merge.ctx] of two tries, [Stale_match.route] onto a
   drifted haas, [Text_io] and [Binary_io] round trips, and the flat
   profiles after [Merge.probe] and [Merge.line]. *)
let render_calls b calls key =
  Hashtbl.iter
    (fun k tbl ->
      Buffer.add_string b " @";
      key b k;
      Hashtbl.iter (fun g c -> Printf.bprintf b " %Lx=%Ld" g c) tbl)
    calls

let render_counts b counts calls key =
  Hashtbl.iter
    (fun k c ->
      Buffer.add_char b ' ';
      key b k;
      Printf.bprintf b "=%Ld" c)
    counts;
  Buffer.add_string b " |";
  render_calls b calls key;
  Buffer.add_char b '\n'

let probe_key b id = Printf.bprintf b "%d" id
let line_key b (l, d) = Printf.bprintf b "%d.%d" l d

let ctx_order (trie : P.Ctx_profile.t) =
  let b = Buffer.create 65536 in
  let rec node depth (n : P.Ctx_profile.node) =
    Printf.bprintf b "%d %Lx" depth n.P.Ctx_profile.n_func;
    Hashtbl.iter (fun (s, g) _ -> Printf.bprintf b " >%d:%Lx" s g) n.P.Ctx_profile.n_children;
    let fe = n.P.Ctx_profile.n_prof in
    render_counts b fe.P.Probe_profile.fe_probes fe.P.Probe_profile.fe_calls probe_key;
    Hashtbl.iter (fun _ c -> node (depth + 1) c) n.P.Ctx_profile.n_children
  in
  Ir.Guid.Tbl.iter (fun _ n -> node 0 n) trie.P.Ctx_profile.roots;
  Buffer.contents b

let probe_order (t : P.Probe_profile.t) =
  let b = Buffer.create 16384 in
  Ir.Guid.Tbl.iter
    (fun g (fe : P.Probe_profile.fentry) ->
      Printf.bprintf b "%Lx" g;
      render_counts b fe.P.Probe_profile.fe_probes fe.P.Probe_profile.fe_calls probe_key)
    t.P.Probe_profile.funcs;
  Buffer.contents b

let line_order (t : P.Line_profile.t) =
  let b = Buffer.create 16384 in
  Ir.Guid.Tbl.iter
    (fun g (fe : P.Line_profile.fentry) ->
      Printf.bprintf b "%Lx" g;
      render_counts b fe.P.Line_profile.fe_lines fe.P.Line_profile.fe_calls line_key)
    t.P.Line_profile.funcs;
  Buffer.contents b

let order_of = function
  | P.Text_io.Ctx_prof t -> ctx_order t
  | P.Text_io.Probe_prof t -> probe_order t
  | P.Text_io.Line_prof t -> line_order t

let haas_order () =
  let w = W.Suite.haas in
  let options = { Test_stale.options with D.trim_threshold = 0L } in
  let correlate shape =
    let b = Fl.Build.profiling_build ~options ~shape ~source:w.D.w_source in
    Fl.Build.correlate ~options ~shape b (Fl.Build.record ~options b w)
  in
  let trie, flat =
    match correlate Fl.Build.Ctx with
    | P.Text_io.Ctx_prof t, Some f -> (t, f)
    | _ -> Alcotest.fail "haas: no context trie and flat profile"
  in
  let lines =
    match correlate Fl.Build.Lines with
    | P.Text_io.Line_prof t, _ -> t
    | _ -> Alcotest.fail "haas: no line profile"
  in
  let copied = P.Ctx_profile.copy trie in
  let trimmed = P.Ctx_profile.copy trie in
  (* At period 101 every haas context holds at least 8 counts; 500
     promotes about half the trie's 9,523 nodes. *)
  ignore (P.Ctx_profile.trim_cold trimmed ~threshold:500L);
  let merged = P.Ctx_profile.create () in
  P.Merge.ctx ~into:merged ~weight:1L trie;
  P.Merge.ctx ~into:merged ~weight:2L trimmed;
  let target =
    Test_stale.target_ir
      (W.Drift.apply ~seed:3L ~edits:6 w.D.w_source).W.Drift.dr_source
  in
  let (routed, routed_flat), _ =
    Csspgo_core.Stale_match.route ~target (P.Text_io.Ctx_prof trimmed, Some flat)
  in
  let round_trip p =
    match P.Binary_io.decode (P.Binary_io.encode p) with
    | Ok p -> p
    | Error e -> Alcotest.failf "binary round trip: %s" (Csspgo_support.Wire.error_to_string e)
  in
  let flat_merged = P.Probe_profile.create () in
  P.Merge.probe ~into:flat_merged ~weight:1L flat;
  P.Merge.probe ~into:flat_merged ~weight:3L (Option.get routed_flat);
  let lines_merged = P.Line_profile.create () in
  P.Merge.line ~into:lines_merged ~weight:2L lines;
  P.Merge.line ~into:lines_merged ~weight:1L lines;
  [
    ("correlate", ctx_order trie);
    ("copy", ctx_order copied);
    ("trim_cold", ctx_order trimmed);
    ("merge ctx", ctx_order merged);
    ("route", ctx_order (match routed with P.Text_io.Ctx_prof t -> t | _ -> assert false));
    ("route flat", probe_order (Option.get routed_flat));
    ("text", order_of (P.Text_io.of_string (P.Text_io.to_string (P.Text_io.Ctx_prof trimmed))));
    ("binary", order_of (round_trip (P.Text_io.Ctx_prof trimmed)));
    ("merge probe", probe_order flat_merged);
    ("merge line", line_order lines_merged);
  ]

(* Recorded while [Line_profile] and [Probe_profile] each wrote their own
   accumulators and [Merge] and [Ctx_profile] their own entry merges. *)
let order_pinned =
  [
    ("correlate", "b19c2635bcef29bb");
    ("copy", "b19c2635bcef29bb");
    ("trim_cold", "685b1ab294faca0b");
    ("merge ctx", "1d601d465f0c7c52");
    ("route", "8cfc6162951c4a21");
    ("route flat", "9513b3a74e26b077");
    ("text", "37b81b98b6493c29");
    ("binary", "37b81b98b6493c29");
    ("merge probe", "bc57e6685a12eb65");
    ("merge line", "34b118c5f41273e1");
  ]

let test_haas_order () =
  let got = List.map (fun (aspect, rendering) -> (aspect, hex rendering)) (haas_order ()) in
  let unpinned = List.filter (fun (aspect, _) -> not (List.mem_assoc aspect order_pinned)) got in
  if unpinned <> [] then
    Alcotest.failf "no pin for %s"
      (String.concat ", " (List.map (fun (a, d) -> Printf.sprintf "%s (digest %s)" a d) unpinned));
  List.iter
    (fun (aspect, d) ->
      Alcotest.(check string) (aspect ^ " order digest") (List.assoc aspect order_pinned) d)
    got

let suite =
  ( "stale-pin",
    List.map
      (fun ((name, _) as c) -> Alcotest.test_case name `Quick (check_case c))
      (List.map workload_case [ W.Suite.adretriever; W.Suite.haas ])
    @ [
        Alcotest.test_case "golden merged fingerprints" `Quick test_golden_merged;
        Alcotest.test_case "haas table order" `Quick test_haas_order;
      ] )
