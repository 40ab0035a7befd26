(* The orchestrator: work-stealing scheduler determinism, the
   content-addressed artifact cache (including deliberate poisoning), and
   the staged plan surface it schedules.

   Cache directories live under the test's working directory (dune's
   sandbox), so reruns start by clearing them. *)

module D = Csspgo_core.Driver
module O = Csspgo_orchestrator
module W = Csspgo_workloads
module Obs = Csspgo_obs

let variants =
  [ D.Nopgo; D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full; D.Instr_pgo ]

let w = W.Suite.adranker

(* Everything a build produces, at byte granularity. [o_annotated] is
   excluded: hashtable marshal images are layout-sensitive even when every
   annotation in them is equal. *)
let digest (o : D.outcome) =
  ( Marshal.to_string o.D.o_binary [],
    o.D.o_eval,
    o.D.o_text_size,
    o.D.o_debug_size,
    o.D.o_probe_meta_size,
    o.D.o_profiling_cycles,
    o.D.o_profile_size )

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let dir_contents dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let fresh_cache dir =
  if Sys.file_exists dir then ignore (O.Cache.clear_dir dir);
  O.Cache.create ~dir ()

(* --- scheduler ------------------------------------------------------- *)

let test_scheduler_map () =
  let xs = List.init 100 Fun.id in
  let expect = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "-j %d preserves input order" jobs)
        expect
        (Csspgo_sched.Scheduler.map ~jobs (fun x -> x * x) xs))
    [ 1; 2; 4; 7 ];
  let boom x = if x = 5 then failwith "boom" else x in
  match Csspgo_sched.Scheduler.map ~jobs:3 boom xs with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "worker exception must propagate to the caller"

(* --- plan surface ---------------------------------------------------- *)

let test_plan_shapes () =
  let stages v = (D.Plan.make ~variant:v w).D.Plan.pl_stages in
  let has p v = List.exists p (stages v) in
  let correlators v =
    List.filter_map
      (function D.Plan.Correlate c -> Some c.D.Plan.x_correlator | _ -> None)
      (stages v)
  in
  List.iter
    (fun v ->
      match List.rev (stages v) with
      | D.Plan.Evaluate _ :: D.Plan.Rebuild _ :: _ -> ()
      | _ ->
          Alcotest.failf "%s plan does not end with Rebuild; Evaluate"
            (D.variant_name v))
    variants;
  Alcotest.(check bool) "no-pgo never profiles" false
    (has (function D.Plan.Profile_run _ -> true | _ -> false) D.Nopgo);
  Alcotest.(check bool) "instr-pgo instruments" true
    (has (function D.Plan.Instrument _ -> true | _ -> false) D.Instr_pgo);
  Alcotest.(check bool) "full csspgo pre-inlines" true
    (has (function D.Plan.Preinline _ -> true | _ -> false) D.Csspgo_full);
  (match correlators D.Autofdo with
  | [ D.Plan.Corr_lines ] -> ()
  | _ -> Alcotest.fail "autofdo must correlate by DWARF lines");
  (match correlators D.Csspgo_probe_only with
  | [ D.Plan.Corr_probes ] -> ()
  | _ -> Alcotest.fail "probe-only must correlate by probes");
  (match correlators D.Csspgo_full with
  | [ D.Plan.Corr_ctx _ ] -> ()
  | _ -> Alcotest.fail "full csspgo must reconstruct contexts");
  match correlators D.Instr_pgo with
  | [ D.Plan.Corr_counters _ ] -> ()
  | _ -> Alcotest.fail "instr-pgo must correlate exact counters"

let test_malformed_plans () =
  let p = D.Plan.make ~variant:D.Csspgo_probe_only w in
  let raises stages =
    match D.Plan.run { p with D.Plan.pl_stages = stages } with
    | exception Invalid_argument _ -> true
    | (_ : D.outcome) -> false
  in
  Alcotest.(check bool) "empty plan rejected" true (raises []);
  Alcotest.(check bool) "profiling without a compile stage rejected" true
    (raises
       (List.filter
          (function D.Plan.Compile _ -> false | _ -> true)
          p.D.Plan.pl_stages))

(* --- plan counters in the registry ------------------------------------ *)

let test_plan_counters_sorted () =
  (* Every plan bumps its stage counters as [plan.*] on the one registry,
     from whatever domain runs it; the snapshot lists them name-sorted,
     with the same names and totals at every -j. *)
  let plan_counters jobs =
    let obs = Obs.Metrics.create () in
    ignore
      (O.Orchestrate.run_plans ~obs ~jobs
         (List.map (fun v -> D.Plan.make ~variant:v w) [ D.Autofdo; D.Csspgo_full ]));
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"plan." name)
      (Obs.Metrics.snapshot obs).Obs.Metrics.s_counters
  in
  let c1 = plan_counters 1 and c4 = plan_counters 4 in
  let names = List.map fst c1 in
  Alcotest.(check bool) "plan counters recorded" true
    (List.mem "plan.correlate.recon-samples" names
    && List.mem "plan.rebuild.funcs-recompiled" names);
  Alcotest.(check (list string)) "sorted by name" (List.sort compare names) names;
  Alcotest.(check (list string)) "same names at -j 4" names (List.map fst c4);
  Alcotest.(check (list (pair string int))) "same totals at -j 4" c1 c4

(* --- "correlate" memo values --------------------------------------- *)

(* A hook may serialize a memoized value long after [memo] returned it
   (bench/perf's recomposition does), so the Driver must never mutate one.
   Every "correlate" value serializes to the same bytes at [memo] time and
   after [Plan.run] has returned. *)
let test_deferred_ser () =
  List.iter
    (fun (wl : D.workload) ->
      List.iter
        (fun v ->
          let plan = D.Plan.make ~variant:v wl in
          let run ~eager =
            let kept = ref [] in
            let memo ~kind ~key:_ ~ser ~de:_ f =
              let x = f () in
              if String.equal kind "correlate" then
                kept := (if eager then Fun.const (ser x) else fun () -> ser x) :: !kept;
              x
            in
            ignore (D.Plan.run ~hooks:{ D.Plan.default_hooks with D.Plan.memo } plan);
            List.rev_map (fun bytes -> bytes ()) !kept
          in
          let eager = run ~eager:true and deferred = run ~eager:false in
          let name = wl.D.w_name ^ "/" ^ D.variant_name v in
          Alcotest.(check int) (name ^ " values") (List.length eager) (List.length deferred);
          List.iteri
            (fun i (e, d) ->
              if not (String.equal e d) then
                Alcotest.failf "%s: correlate value %d changed after memo returned" name i)
            (List.combine eager deferred))
        variants)
    [ W.Suite.haas; W.Suite.adretriever ]

(* [plan.correlate.profile-bytes] is the length of the correlated profile's
   canonical text. Only a live registry records it, so only then does the
   Driver render that text: the stage's own allocation (its memo thunks
   excluded) grows by at least the text's length between a null and a live
   registry. *)
let test_profile_bytes () =
  List.iter
    (fun v ->
      let plan = D.Plan.make ~variant:v W.Suite.haas in
      let run obs =
        let texts = ref [] and thunk_bytes = ref 0. and own_bytes = ref 0. in
        let memo ~kind ~key:_ ~ser ~de:_ f =
          let a0 = Gc.allocated_bytes () in
          let x = f () in
          thunk_bytes := !thunk_bytes +. (Gc.allocated_bytes () -. a0);
          if String.equal kind "correlate" then texts := (fun () -> ser x) :: !texts;
          x
        in
        let span ~name f =
          if not (String.equal name "correlate") then f ()
          else begin
            thunk_bytes := 0.;
            let a0 = Gc.allocated_bytes () in
            let x = f () in
            own_bytes := Gc.allocated_bytes () -. a0 -. !thunk_bytes;
            x
          end
        in
        let hooks = { D.Plan.default_hooks with D.Plan.memo; span; obs } in
        ignore (D.Plan.run ~hooks plan);
        (List.map (fun ser -> ser ()) !texts, !own_bytes)
      in
      let name = D.variant_name v in
      let obs = Obs.Metrics.create () in
      let texts, live_own = run obs in
      (* The last "correlate" value is the variant's profile, except that a
         context profile comes before its flat baseline and its memo value
         also carries the reconstruction stats. *)
      let text =
        match (v, texts) with
        | D.Csspgo_full, _flat :: ser :: _ ->
            fst (Marshal.from_string ser 0 : string * Csspgo_core.Ctx_reconstruct.stats)
        | _, text :: _ -> text
        | _, [] -> Alcotest.failf "%s: no correlate value" name
      in
      Alcotest.(check (option int)) (name ^ " profile-bytes") (Some (String.length text))
        (Obs.Metrics.find_counter (Obs.Metrics.snapshot obs) "plan.correlate.profile-bytes");
      let _, null_own = run Obs.Metrics.null in
      Alcotest.(check (option int)) (name ^ " null records nothing") None
        (Obs.Metrics.find_counter (Obs.Metrics.snapshot Obs.Metrics.null)
           "plan.correlate.profile-bytes");
      if live_own -. null_own < float_of_int (String.length text) then
        Alcotest.failf "%s: a null registry still renders (own allocation null %.0f B, live %.0f B; text %d B)"
          name null_own live_own (String.length text))
    [ D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full ]

(* --- determinism: 1 / 2 / 4 domains --------------------------------- *)

let test_determinism_across_jobs () =
  let matrix dir jobs =
    let cache = fresh_cache dir in
    O.Orchestrate.run_plans ~cache ~jobs
      (List.map (fun v -> D.Plan.make ~variant:v w) variants)
  in
  let d1 = List.map digest (matrix "orch-cache-j1" 1) in
  let d2 = List.map digest (matrix "orch-cache-j2" 2) in
  let d4 = List.map digest (matrix "orch-cache-j4" 4) in
  Alcotest.(check bool) "-j 2 outcomes byte-identical to serial" true (d1 = d2);
  Alcotest.(check bool) "-j 4 outcomes byte-identical to serial" true (d1 = d4);
  (* The cached artifacts — binaries, canonical profile text dumps, eval
     results — must be byte-identical files too, whatever the schedule. *)
  let c1 = dir_contents "orch-cache-j1" in
  Alcotest.(check bool) "-j 2 cache entries byte-identical" true
    (c1 = dir_contents "orch-cache-j2");
  Alcotest.(check bool) "-j 4 cache entries byte-identical" true
    (c1 = dir_contents "orch-cache-j4");
  Alcotest.(check bool) "cache is not vacuously empty" true (c1 <> [])

(* --- cache: warm reuse, poisoning, healing --------------------------- *)

let test_cache_poisoning () =
  let dir = "orch-cache-poison" in
  let plan = D.Plan.make ~variant:D.Csspgo_probe_only w in
  let run cache = D.Plan.run ~hooks:(O.Orchestrate.hooks cache) plan in
  let c0 = fresh_cache dir in
  let o0 = run c0 in
  Alcotest.(check bool) "cold run stores entries" true
    ((O.Cache.stats c0).O.Cache.stores > 0);
  (* a fresh cache instance serves the whole plan from disk *)
  let c1 = O.Cache.create ~dir () in
  let o1 = run c1 in
  let s1 = O.Cache.stats c1 in
  Alcotest.(check int) "warm run misses nothing" 0 s1.O.Cache.misses;
  Alcotest.(check bool) "warm run hits" true (s1.O.Cache.hits > 0);
  Alcotest.(check bool) "warm outcome byte-identical" true (digest o0 = digest o1);
  (* flip one payload byte in every entry on disk *)
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      let b = Bytes.of_string (read_file path) in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc)
    (Sys.readdir dir);
  (* every lookup now fails its digest: detected, deleted, recomputed *)
  let c2 = O.Cache.create ~dir () in
  let o2 = run c2 in
  let s2 = O.Cache.stats c2 in
  Alcotest.(check bool) "poisoned entries detected" true (s2.O.Cache.corrupt > 0);
  Alcotest.(check bool) "poisoned stages rebuilt" true (s2.O.Cache.stores > 0);
  Alcotest.(check bool) "rebuilt outcome byte-identical" true
    (digest o0 = digest o2);
  (* and the rebuild healed the cache in place *)
  let c3 = O.Cache.create ~dir () in
  let o3 = run c3 in
  let s3 = O.Cache.stats c3 in
  Alcotest.(check int) "healed: no corruption left" 0 s3.O.Cache.corrupt;
  Alcotest.(check int) "healed: no misses left" 0 s3.O.Cache.misses;
  Alcotest.(check bool) "healed outcome byte-identical" true
    (digest o0 = digest o3)

let suite =
  ( "orchestrator",
    [
      Alcotest.test_case "scheduler map is order-preserving" `Quick
        test_scheduler_map;
      Alcotest.test_case "plan stage lists per variant" `Quick test_plan_shapes;
      Alcotest.test_case "malformed plans rejected" `Quick test_malformed_plans;
      Alcotest.test_case "plan counters are name-sorted" `Quick
        test_plan_counters_sorted;
      Alcotest.test_case "correlate values survive the plan" `Quick test_deferred_ser;
      Alcotest.test_case "profile-bytes only with a live registry" `Quick
        test_profile_bytes;
      Alcotest.test_case "1/2/4 domains byte-identical" `Slow
        test_determinism_across_jobs;
      Alcotest.test_case "cache poisoning degrades to rebuild" `Quick
        test_cache_poisoning;
    ] )
