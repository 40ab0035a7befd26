(* Source drift and tenant mixes pinned byte for byte. [Drift.apply] over
   every Suite workload at seeds 1-10 and 1, 2, 4 and 8 edits: each
   (workload, edits) cell digests the drifted sources and their edit logs
   in seed order, and the grid must exercise all eight edit kinds (each
   occurs between 19 and 228 times). Then
   [Mix.make]'s composed source for two tenant sets at three seeds. *)
module D = Csspgo_core.Driver
module W = Csspgo_workloads
module Fnv = Csspgo_support.Fnv

let hex s = Printf.sprintf "%016Lx" (Fnv.hash_string s)
let seeds = List.init 10 (fun i -> Int64.of_int (i + 1))
let edit_counts = [ 1; 2; 4; 8 ]

let kind_name : W.Drift.edit -> string = function
  | Insert_stmt _ -> "insert-stmt"
  | Insert_block _ -> "insert-block"
  | Delete_stmt _ -> "delete-stmt"
  | Add_fn _ -> "add-fn"
  | Remove_fn _ -> "remove-fn"
  | Rename_fn _ -> "rename-fn"
  | Reorder_defs _ -> "reorder-defs"
  | Retarget_call _ -> "retarget-call"

let kinds =
  [ "insert-stmt"; "insert-block"; "delete-stmt"; "add-fn"; "remove-fn"; "rename-fn";
    "reorder-defs"; "retarget-call" ]

(* Digest per (workload, edits) cell, and the number of edits of each kind
   over the whole grid. *)
let drift_grid () =
  let seen = Hashtbl.create 8 in
  let cells =
    List.concat_map
      (fun (w : D.workload) ->
        List.map
          (fun edits ->
            let b = Buffer.create 65536 in
            List.iter
              (fun seed ->
                let r = W.Drift.apply ~seed ~edits w.D.w_source in
                Printf.bprintf b "seed %Ld\n%s" seed r.W.Drift.dr_source;
                List.iter
                  (fun e ->
                    let k = kind_name e in
                    let n = Option.value ~default:0 (Hashtbl.find_opt seen k) in
                    Hashtbl.replace seen k (n + 1);
                    Printf.bprintf b "%s\n" (W.Drift.edit_to_string e))
                  r.W.Drift.dr_edits)
              seeds;
            (Printf.sprintf "%s e%d" w.D.w_name edits, hex (Buffer.contents b)))
          edit_counts)
      W.Suite.all
  in
  (cells, seen)

(* Recorded while Drift walked the AST with its own hand-written walkers. *)
let drift_pinned =
  [
    ("adranker e1", "b3a253c39d990133");
    ("adranker e2", "64c34032e5e8833a");
    ("adranker e4", "584b9c811373a09c");
    ("adranker e8", "7bdea87ca4b28199");
    ("adretriever e1", "4c9b6ec8acf319d8");
    ("adretriever e2", "929d6b60c7502ba4");
    ("adretriever e4", "3fffaf524516d290");
    ("adretriever e8", "fb176add07ac3e70");
    ("adfinder e1", "914bd200cd97cce0");
    ("adfinder e2", "e3136fd90bdd0c6b");
    ("adfinder e4", "e79a2ee69b5e8bb1");
    ("adfinder e8", "49caaa1876892661");
    ("hhvm e1", "4bdaf5131083c8c5");
    ("hhvm e2", "680ec3e393e9f81f");
    ("hhvm e4", "7db33bfeebcf7e3c");
    ("hhvm e8", "719aa41f4e15e975");
    ("haas e1", "f040670ee379b4ec");
    ("haas e2", "357778db9cff9755");
    ("haas e4", "9a8fe7157cc7604d");
    ("haas e8", "2e695b13dc18bf5a");
    ("clangish e1", "5514567db9845751");
    ("clangish e2", "64adc2654c8e7f41");
    ("clangish e4", "12b8df3a72bbe112");
    ("clangish e8", "6af93370576b0450");
  ]

(* An unpinned key fails with every unpinned digest listed, ready to
   paste. *)
let check_pins pinned got =
  let unpinned = List.filter (fun (key, _) -> not (List.mem_assoc key pinned)) got in
  if unpinned <> [] then
    Alcotest.failf "no pin for\n%s"
      (String.concat "\n"
         (List.map (fun (key, d) -> Printf.sprintf "    (%S, %S);" key d) unpinned));
  List.iter
    (fun (key, d) -> Alcotest.(check string) (key ^ " digest") (List.assoc key pinned) d)
    got

let test_drift () =
  let cells, seen = drift_grid () in
  check_pins drift_pinned cells;
  List.iter
    (fun k ->
      if not (Hashtbl.mem seen k) then
        Alcotest.failf "edit kind %s never occurs in the grid" k)
    kinds

let tenant_sets =
  [
    ("adfinder:3+adranker:1", [ (W.Suite.adfinder, 3); (W.Suite.adranker, 1) ]);
    ( "adretriever:1+hhvm:2+haas:1",
      [ (W.Suite.adretriever, 1); (W.Suite.hhvm, 2); (W.Suite.haas, 1) ] );
  ]

let mix_sources () =
  List.concat_map
    (fun (name, set) ->
      let tenants =
        List.map
          (fun ((w : D.workload), weight) ->
            { W.Mix.t_name = w.D.w_name; t_workload = w; t_weight = weight })
          set
      in
      List.map
        (fun seed ->
          let mx = W.Mix.make ~seed ~requests:8 tenants in
          (Printf.sprintf "%s seed %Ld" name seed, hex mx.W.Mix.mx_workload.D.w_source))
        [ 1L; 7L; 99L ])
    tenant_sets

(* Recorded while Mix.rename walked the AST with its own recursive walk.
   The composed source does not depend on the traffic seed, so each set's
   three digests agree. *)
let mix_pinned =
  [
    ("adfinder:3+adranker:1 seed 1", "895bcfe5ce5b55f6");
    ("adfinder:3+adranker:1 seed 7", "895bcfe5ce5b55f6");
    ("adfinder:3+adranker:1 seed 99", "895bcfe5ce5b55f6");
    ("adretriever:1+hhvm:2+haas:1 seed 1", "660fed74b93cbf8e");
    ("adretriever:1+hhvm:2+haas:1 seed 7", "660fed74b93cbf8e");
    ("adretriever:1+hhvm:2+haas:1 seed 99", "660fed74b93cbf8e");
  ]

let test_mix () = check_pins mix_pinned (mix_sources ())

let suite =
  ( "drift-pin",
    [
      Alcotest.test_case "drift grid" `Quick test_drift;
      Alcotest.test_case "mix sources" `Quick test_mix;
    ] )
