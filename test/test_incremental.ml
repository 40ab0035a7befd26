(* Delta-driven incremental PGO rebuilds.

   The final-build stage keys its whole-binary cache entry on the merged
   profile fingerprint and keeps a per-function cache underneath, keyed on
   the digest of each function's post-inline annotated image. These tests
   pin the three behaviours that make that sound:

   - an unchanged profile reuses the cached binary outright (zero
     recompiles, not even per-function hits);
   - the per-function layer alone can reconstruct the binary byte-for-byte
     (every function reused when the whole-binary entry is bypassed);
   - a drifted rebuild is byte-identical to a cold clean rebuild, at
     -j 1/2/4 alike, and a profile delta confined to one function
     recompiles exactly that function. *)

module D = Csspgo_core.Driver
module O = Csspgo_orchestrator
module W = Csspgo_workloads
module Cg = Csspgo_codegen
module M = Csspgo_obs.Metrics

(* clangish keeps the most functions alive through inlining (four), so it
   is the one suite workload where a partial recompile is observable.
   Seeds 3 and 4 both edit the same function in place (no line-count
   change), which makes them a minimal profile-delta pair: everything
   outside that function — bodies, debug locations, matched counts — is
   identical between the two drifted versions. *)
let wl = W.Suite.clangish
let plan = D.Plan.make ~variant:D.Csspgo_full wl

let stale_plan_of seed =
  let d = W.Drift.apply ~seed ~edits:1 wl.D.w_source in
  D.Plan.make_stale ~variant:D.Csspgo_full ~stale_source:d.W.Drift.dr_source wl

let stale_plan_a = stale_plan_of 3L
let stale_plan = stale_plan_of 4L

(* A binary's marshaled image. [No_sharing] keeps it structural: a binary
   respliced from cached (marshal round-tripped) functions has different
   subterm sharing than a freshly emitted one. *)
let proj (o : D.outcome) = Marshal.to_string o.D.o_binary [ Marshal.No_sharing ]
let plan_count name obs = Option.value ~default:0 (M.find_counter (M.snapshot obs) name)
let recompiled = plan_count "plan.rebuild.funcs-recompiled"
let reused = plan_count "plan.rebuild.funcs-reused"

(* One cold build, shared by the tests below; its cache is the warm state
   every incremental scenario starts from. *)
let cold =
  lazy
    (let cache = O.Cache.create () in
     let obs = M.create () in
     let out = D.Plan.run ~hooks:(O.Orchestrate.hooks ~obs cache) plan in
     (cache, obs, out))

(* The cold clean rebuild of [stale_plan], uncached: the reference every
   incremental rebuild of it must match byte for byte. *)
let clean_stale = lazy (proj (D.Plan.run stale_plan))

let test_warm_rerun () =
  let cache, obs_cold, out_cold = Lazy.force cold in
  Alcotest.(check bool)
    "cold build compiles at least one function" true
    (recompiled obs_cold > 0);
  Alcotest.(check int) "cold build reuses nothing" 0 (reused obs_cold);
  let obs = M.create () in
  let out = D.Plan.run ~hooks:(O.Orchestrate.hooks ~obs cache) plan in
  (* A whole-binary hit never reaches the per-function layer, so neither
     counter may fire. *)
  Alcotest.(check int) "warm rerun recompiles nothing" 0 (recompiled obs);
  Alcotest.(check int)
    "warm rerun skips the per-function layer" 0 (reused obs);
  Alcotest.(check bool)
    "warm rerun binary is byte-identical" true
    (String.equal (proj out_cold) (proj out))

let test_function_layer_complete () =
  let cache, obs_cold, out_cold = Lazy.force cold in
  (* Bypass the whole-binary entry while keeping every other stage cached:
     the final build must be reconstructible from per-function hits
     alone. *)
  let obs = M.create () in
  let h = O.Orchestrate.hooks ~obs cache in
  let hooks =
    {
      h with
      D.Plan.memo =
        (fun ~kind ~key ~ser ~de thunk ->
          if String.equal kind "final-build" then thunk ()
          else h.D.Plan.memo ~kind ~key ~ser ~de thunk);
    }
  in
  let out = D.Plan.run ~hooks plan in
  Alcotest.(check int) "no function recompiles" 0 (recompiled obs);
  Alcotest.(check int)
    "every function is a per-function hit"
    (recompiled obs_cold) (reused obs);
  Alcotest.(check bool)
    "respliced binary is byte-identical" true
    (String.equal (proj out_cold) (proj out))

let test_drifted_rebuild () =
  let cache, obs_cold, _ = Lazy.force cold in
  let obs = M.create () in
  let inc = D.Plan.run ~hooks:(O.Orchestrate.hooks ~obs cache) stale_plan in
  (* A source edit shifts debug locations of everything inlined from or
     laid out after it, and the line table is part of the emitted binary,
     so the whole-function digest rightly treats those functions as
     drifted too: the rebuild recompiles rather than reuse stale debug
     info. *)
  Alcotest.(check bool)
    "drifted functions recompile" true (recompiled obs >= 1);
  Alcotest.(check bool)
    "no more functions than the cold build" true
    (recompiled obs + reused obs <= recompiled obs_cold);
  Alcotest.(check bool)
    "incremental rebuild is byte-identical to clean" true
    (String.equal (proj inc) (Lazy.force clean_stale))

let test_profile_delta_subset () =
  (* Two drifted versions editing the same function: rebuilding version B
     with version A's build cached recompiles exactly the re-edited
     function and reuses every other per-function entry. *)
  let cache = O.Cache.create () in
  let obs_a = M.create () in
  let _ = D.Plan.run ~hooks:(O.Orchestrate.hooks ~obs:obs_a cache) stale_plan_a in
  let total = recompiled obs_a in
  let obs_b = M.create () in
  let inc = D.Plan.run ~hooks:(O.Orchestrate.hooks ~obs:obs_b cache) stale_plan in
  Alcotest.(check bool)
    "only the re-edited function recompiles" true
    (recompiled obs_b >= 1 && recompiled obs_b < total);
  Alcotest.(check bool) "unchanged functions reuse" true (reused obs_b >= 1);
  Alcotest.(check int)
    "every surviving function is either reused or recompiled" total
    (recompiled obs_b + reused obs_b);
  Alcotest.(check bool)
    "delta rebuild is byte-identical to clean" true
    (String.equal (proj inc) (Lazy.force clean_stale))

let test_jobs_determinism () =
  let reference = Lazy.force clean_stale in
  List.iter
    (fun jobs ->
      let cache = O.Cache.create () in
      let obs = M.create () in
      (match O.Orchestrate.run_plans ~cache ~obs ~jobs [ plan ] with
      | [ _ ] -> ()
      | _ -> Alcotest.fail "warm-up returned wrong arity");
      let outs =
        O.Orchestrate.run_plans ~cache ~obs ~jobs [ stale_plan; stale_plan ]
      in
      List.iteri
        (fun i o ->
          Alcotest.(check bool)
            (Printf.sprintf "-j %d incremental rebuild %d matches clean" jobs i)
            true
            (String.equal (proj o) reference))
        outs)
    [ 1; 2; 4 ]

(* The profile-run and final-build entries hold marshaled binaries, so
   their keys carry a layout tag: a warm cache written before a change to
   [Mach.binary]'s shape misses rather than decode into the new one. *)
let test_keys_carry_layout_tags () =
  let cache, _, _ = Lazy.force cold in
  let h = O.Orchestrate.hooks cache in
  let calls = ref [] in
  let hooks =
    {
      h with
      D.Plan.memo =
        (fun ~kind ~key ~ser ~de thunk ->
          calls := (kind, key) :: !calls;
          h.D.Plan.memo ~kind ~key ~ser ~de thunk);
    }
  in
  ignore (D.Plan.run ~hooks plan);
  List.iter
    (fun (kind, tag) ->
      match List.filter (fun (k, _) -> String.equal k kind) !calls with
      | [] -> Alcotest.failf "no %s memo call" kind
      | keys ->
          List.iter
            (fun (_, key) ->
              Alcotest.(check (list string)) (kind ^ " key tag") [ tag ]
                (List.filteri (fun i _ -> i = 0) key))
            keys)
    [ ("profile-run", "stream-v6"); ("final-build", "bin-v2") ]

let suite =
  ( "incremental",
    [
      Alcotest.test_case "warm rerun is a whole-binary hit" `Quick
        test_warm_rerun;
      Alcotest.test_case "per-function cache reconstructs the binary" `Quick
        test_function_layer_complete;
      Alcotest.test_case "drifted rebuild matches a clean rebuild" `Quick
        test_drifted_rebuild;
      Alcotest.test_case "profile delta recompiles only the edited function"
        `Quick test_profile_delta_subset;
      Alcotest.test_case "incremental rebuild deterministic at -j 1/2/4" `Slow
        test_jobs_determinism;
      Alcotest.test_case "binary cache keys carry layout tags" `Quick
        test_keys_carry_layout_tags;
    ] )
