(* Mutation check for the fuzzing harness itself: plant a known
   miscompile (a broken "constfold" that drops conditional guards) into
   the campaign's pipeline and require that (a) the differential oracles
   catch it within a handful of seeds, and (b) the minimizer shrinks the
   reproducer to something a human can read. A harness that cannot find
   a deliberately planted bug proves nothing about the real pipeline. *)
module Fz = Csspgo_fuzz

let campaign_config =
  {
    Fz.Campaign.default_config with
    Fz.Campaign.cf_skip = [ "variants" ];
    (* variant runs can't see the injected pass; skip them for speed *)
    cf_inject = Some Fz.Campaign.planted_bug;
    cf_max_failures = Some 1;
  }

let find_planted_failure () =
  let stats = Fz.Campaign.run campaign_config ~seeds:(1, 50) in
  match stats.Fz.Campaign.st_failures with
  | [] -> Alcotest.fail "planted miscompile survived 50 seeds undetected"
  | f :: _ -> f

let test_detects_planted_bug () =
  let f = find_planted_failure () in
  (match f.Fz.Campaign.fl_kind with
  | Fz.Campaign.Result_mismatch | Fz.Campaign.Verify_error -> ()
  | k ->
      Alcotest.failf "planted bug reported as %s, expected a miscompile"
        (Fz.Campaign.kind_name k));
  match f.Fz.Campaign.fl_minimized with
  | None -> Alcotest.fail "no minimized reproducer produced"
  | Some m ->
      let n = Fz.Reduce.count_source_lines m in
      let orig = Fz.Reduce.count_source_lines f.Fz.Campaign.fl_source in
      if n > 20 then
        Alcotest.failf "reproducer still %d lines (original %d), want <= 20" n
          orig;
      if n >= orig then
        Alcotest.failf "minimizer did not shrink: %d -> %d lines" orig n

let test_clean_pipeline_quiet () =
  (* Same seeds, no injected bug: the real pipeline must stay green, so
     the mutation test above cannot be passing on harness noise. *)
  let cfg =
    { campaign_config with Fz.Campaign.cf_inject = None; cf_max_failures = None }
  in
  let stats = Fz.Campaign.run cfg ~seeds:(1, 10) in
  Alcotest.(check int) "no failures without injection" 0
    (Fz.Campaign.n_failures stats);
  Alcotest.(check bool) "some seeds actually ran" true
    (stats.Fz.Campaign.st_runs > stats.Fz.Campaign.st_discards)

let test_skip_honoured () =
  (* The planted bug lives in the plan pipelines only: find the seeds where
     the plan family catches it, then rerun exactly those seeds with plans
     skipped too. Every other family still runs, injection on, and must
     stay green. *)
  let plans_only =
    {
      campaign_config with
      Fz.Campaign.cf_skip =
        List.filter_map
          (fun f ->
            let n = f.Fz.Campaign.fam_name in
            if n = "plans" then None else Some n)
          Fz.Campaign.families;
      cf_minimize = false;
      cf_max_failures = None;
    }
  in
  let caught =
    List.map
      (fun f -> Int64.to_int f.Fz.Campaign.fl_seed)
      (Fz.Campaign.run plans_only ~seeds:(1, 10)).Fz.Campaign.st_failures
  in
  if caught = [] then Alcotest.fail "planted miscompile not caught in seeds 1-10";
  let cfg =
    { plans_only with Fz.Campaign.cf_skip = [ "plans"; "variants" ] }
  in
  List.iter
    (fun s ->
      let stats = Fz.Campaign.run cfg ~seeds:(s, s) in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no failures with plans skipped" s)
        0
        (Fz.Campaign.n_failures stats))
    caught;
  Alcotest.check_raises "unknown family name rejected"
    (Invalid_argument "Campaign.run: no oracle family named plan") (fun () ->
      ignore
        (Fz.Campaign.run { cfg with Fz.Campaign.cf_skip = [ "plan" ] } ~seeds:(1, 1)))

let test_sites_have_families () =
  let names = List.map (fun f -> f.Fz.Campaign.fam_name) Fz.Campaign.families in
  Alcotest.(check int) "family names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let module D = Csspgo_core.Driver in
  let pl = Fz.Campaign.sample_plan (Csspgo_support.Rng.create 1L) in
  let owner site =
    Option.map (fun f -> f.Fz.Campaign.fam_name) (Fz.Campaign.family_of site)
  in
  List.iter
    (fun (site, want) ->
      Alcotest.(check (option string))
        (Fz.Campaign.site_to_string site)
        want (owner site))
    ([
       (Fz.Campaign.Reference, None);
       (Fz.Campaign.Plan pl, Some "plans");
       (Fz.Campaign.Quality, Some "variants");
       ( Fz.Campaign.Stale
           { sl_variant = None; sl_drift_seed = 1L; sl_edits = 3 },
         Some "stale" );
       ( Fz.Campaign.Stale
           { sl_variant = Some D.Autofdo; sl_drift_seed = 1L; sl_edits = 3 },
         Some "stale" );
       (Fz.Campaign.Format "sample-log round-trip", Some "format");
       (Fz.Campaign.Fleet "merge laws", Some "fleet");
       (Fz.Campaign.Parcorr "ctx", Some "parcorr");
       (Fz.Campaign.Health "series merge laws", Some "health");
       (Fz.Campaign.Labels "v3 framing", Some "labels");
     ]
    @ List.map
        (fun v -> (Fz.Campaign.Variant v, Some "variants"))
        [ D.Nopgo; D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full; D.Instr_pgo ]
    @ List.map
        (fun v -> (Fz.Campaign.Stream v, Some "stream"))
        [ D.Autofdo; D.Csspgo_full ])

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "campaign detects planted miscompile" `Quick
        test_detects_planted_bug;
      Alcotest.test_case "clean pipeline stays green" `Quick
        test_clean_pipeline_quiet;
      Alcotest.test_case "skip is honoured" `Quick test_skip_honoured;
      Alcotest.test_case "every site belongs to a family" `Quick
        test_sites_have_families;
    ] )
