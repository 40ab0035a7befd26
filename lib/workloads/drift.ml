module F = Csspgo_frontend
module Ast = F.Ast
module Rng = Csspgo_support.Rng

type edit =
  | Insert_stmt of { in_fn : string; at_line : int }
  | Insert_block of { in_fn : string; at_line : int }
  | Delete_stmt of { in_fn : string; at_line : int }
  | Add_fn of { name : string }
  | Remove_fn of { name : string }
  | Rename_fn of { old_name : string; new_name : string; call_sites : int }
  | Reorder_defs of { moved : string }
  | Retarget_call of { in_fn : string; old_callee : string; new_callee : string }

let edit_to_string = function
  | Insert_stmt { in_fn; at_line } ->
      Printf.sprintf "insert-stmt %s@%d" in_fn at_line
  | Insert_block { in_fn; at_line } ->
      Printf.sprintf "insert-block %s@%d" in_fn at_line
  | Delete_stmt { in_fn; at_line } ->
      Printf.sprintf "delete-stmt %s@%d" in_fn at_line
  | Add_fn { name } -> Printf.sprintf "add-fn %s" name
  | Remove_fn { name } -> Printf.sprintf "remove-fn %s" name
  | Rename_fn { old_name; new_name; call_sites } ->
      Printf.sprintf "rename-fn %s->%s (%d call sites)" old_name new_name call_sites
  | Reorder_defs { moved } -> Printf.sprintf "reorder-defs %s" moved
  | Retarget_call { in_fn; old_callee; new_callee } ->
      Printf.sprintf "retarget-call %s: %s->%s" in_fn old_callee new_callee

type result = { dr_source : string; dr_edits : edit list }

let distances = [ 0; 1; 2; 4; 8 ]

(* The entry function is never removed or renamed: the driver looks it up by
   name, and the whole point of drift is a program the old profile can still
   be replayed against. *)
let entry_name = "main"

(* ------------------------------------------------------------------ *)
(* Numbering. Blocks and call sites of one function body are numbered *)
(* in [Ast.map]'s walk order; candidate enumeration and the rewrite   *)
(* both number through these, so their numbers agree.                 *)
(* ------------------------------------------------------------------ *)

(* [f id b] gets each block with its number and returns its replacement. *)
let number_blocks f body =
  let next = ref (-1) in
  Ast.map body ~block:(fun b ->
      incr next;
      f !next b)

(* [f occ e callee args] gets each call with its number and returns its
   replacement. *)
let number_calls f body =
  let next = ref (-1) in
  Ast.map body ~expr:(fun (e : Ast.expr) ->
      match e.e with
      | Call (callee, args) ->
          incr next;
          f !next e callee args
      | _ -> e)

(* Rewrite the body of the [fi]-th function with [f]. *)
let map_body (p : Ast.program) fi f =
  List.mapi
    (fun i (fn : Ast.fndef) -> if i = fi then { fn with fbody = f fn.fbody } else fn)
    p.pfns

(* ------------------------------------------------------------------ *)
(* Program facts.                                                     *)
(* ------------------------------------------------------------------ *)

module SS = Set.Make (String)

let iter_callees f (fn : Ast.fndef) =
  Ast.iter fn.fbody ~expr:(fun (e : Ast.expr) ->
      match e.e with Call (n, _) -> f n | _ -> ())

let used_names (p : Ast.program) =
  let acc = ref SS.empty in
  let add n = acc := SS.add n !acc in
  List.iter (fun (n, _) -> add n) p.pglobals;
  List.iter
    (fun (fn : Ast.fndef) ->
      add fn.fname;
      List.iter add fn.fparams;
      Ast.iter fn.fbody
        ~stmt:(fun (st : Ast.stmt) ->
          match st.s with Let (n, _) | Assign (n, _) | Store (n, _, _) -> add n | _ -> ())
        ~expr:(fun (e : Ast.expr) ->
          match e.e with Var n | Call (n, _) | Index (n, _) -> add n | _ -> ()))
    p.pfns;
  !acc

(* Called-by-anyone set, over the whole program. *)
let callees (p : Ast.program) =
  let acc = ref SS.empty in
  List.iter (iter_callees (fun n -> acc := SS.add n !acc)) p.pfns;
  !acc

let is_leaf fn =
  let leaf = ref true in
  iter_callees (fun _ -> leaf := false) fn;
  !leaf

let arity_of (p : Ast.program) name =
  List.find_map
    (fun (fn : Ast.fndef) ->
      if String.equal fn.fname name then Some (List.length fn.fparams) else None)
    p.pfns

(* ------------------------------------------------------------------ *)
(* A fresh-name source shared across the whole edit script.           *)
(* ------------------------------------------------------------------ *)

type naming = { mutable used : SS.t; mutable next : int }

let fresh names prefix =
  let rec go () =
    let n = Printf.sprintf "%s%d" prefix names.next in
    names.next <- names.next + 1;
    if SS.mem n names.used then go ()
    else begin
      names.used <- SS.add n names.used;
      n
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The edits. Each returns [Some (program, log entry)] or [None] when *)
(* no candidate satisfies its safety precondition.                    *)
(* ------------------------------------------------------------------ *)

let dummy_stmt s : Ast.stmt = { s; sline = 0 }
let dummy_expr e : Ast.expr = { e; eline = 0 }

let small_const rng = dummy_expr (Ast.Int (Int64.of_int (Rng.int_in rng 1 97)))

let insert_at l at x =
  let rec go i = function
    | rest when i = at -> x :: rest
    | y :: rest -> y :: go (i + 1) rest
    | [] -> [ x ]
  in
  go 0 l

(* The three block edits. A site is a (function, block, slot) triple, with
   [slots b] the slots of block [b]; one is drawn uniformly and its block
   rewritten by [edit slot]. Returns the program, the function's name and
   the 1-based slot. *)
let edit_block rng (p : Ast.program) ~slots edit =
  let sites = ref [] in
  List.iteri
    (fun fi (fn : Ast.fndef) ->
      ignore
        (number_blocks
           (fun bid b ->
             List.iter (fun at -> sites := (fi, bid, at) :: !sites) (slots b);
             b)
           fn.fbody))
    p.pfns;
  match List.rev !sites with
  | [] -> None
  | l ->
      let fi, bid, at = Rng.choose rng (Array.of_list l) in
      let edit = edit at in
      let pfns =
        map_body p fi (number_blocks (fun id b -> if id = bid then edit b else b))
      in
      Some ({ p with pfns }, (List.nth p.pfns fi).fname, at + 1)

let every_slot b = List.init (List.length b + 1) Fun.id

let edit_insert_stmt rng names p =
  edit_block rng p ~slots:every_slot (fun at ->
      let name = fresh names "drift_v" in
      let st =
        dummy_stmt
          (Ast.Let
             ( name,
               dummy_expr
                 (Ast.Binary (Ast.Arith Csspgo_ir.Types.Add, small_const rng, small_const rng))
             ))
      in
      fun b -> insert_at b at st)
  |> Option.map (fun (p, in_fn, at_line) -> (p, Insert_stmt { in_fn; at_line }))

let edit_insert_block rng names p =
  edit_block rng p ~slots:every_slot (fun at ->
      let name = fresh names "drift_b" in
      (* Statically dead: the condition is the literal 0. The block still
         lowers to real CFG nodes, so the function's shape checksum moves. *)
      let st =
        dummy_stmt
          (Ast.If
             ( dummy_expr (Ast.Int 0L),
               [ dummy_stmt (Ast.Let (name, small_const rng)) ],
               [] ))
      in
      fun b -> insert_at b at st)
  |> Option.map (fun (p, in_fn, at_line) -> (p, Insert_block { in_fn; at_line }))

(* Only side-effect-only statements: deleting a [let] breaks later uses,
   deleting an assignment can break a loop induction. *)
let deletable b =
  List.concat
    (List.mapi
       (fun at (st : Ast.stmt) -> match st.s with Expr _ | Store _ -> [ at ] | _ -> [])
       b)

let edit_delete_stmt rng p =
  edit_block rng p ~slots:deletable (fun at b -> List.filteri (fun j _ -> j <> at) b)
  |> Option.map (fun (p, in_fn, at_line) -> (p, Delete_stmt { in_fn; at_line }))

let edit_add_fn rng names (p : Ast.program) =
  let name = fresh names "drift_fn" in
  let body =
    [ dummy_stmt
        (Ast.Return
           (dummy_expr
              (Ast.Binary
                 ( Ast.Arith Csspgo_ir.Types.Mul,
                   dummy_expr (Ast.Var "a"),
                   small_const rng )))) ]
  in
  let fn : Ast.fndef =
    { fname = name; fparams = [ "a" ]; fbody = body; fline = 0; fmodule = "main" }
  in
  Some ({ p with pfns = p.pfns @ [ fn ] }, Add_fn { name })

let edit_remove_fn rng (p : Ast.program) =
  let called = callees p in
  let cands =
    List.filter
      (fun (fn : Ast.fndef) ->
        (not (String.equal fn.fname entry_name)) && not (SS.mem fn.fname called))
      p.pfns
  in
  match cands with
  | [] -> None
  | l ->
      let victim = (Rng.choose rng (Array.of_list l)).Ast.fname in
      let pfns = List.filter (fun (fn : Ast.fndef) -> not (String.equal fn.fname victim)) p.pfns in
      Some ({ p with pfns }, Remove_fn { name = victim })

let edit_rename_fn rng names (p : Ast.program) =
  let cands =
    List.filter (fun (fn : Ast.fndef) -> not (String.equal fn.fname entry_name)) p.pfns
  in
  match cands with
  | [] -> None
  | l ->
      let old_name = (Rng.choose rng (Array.of_list l)).Ast.fname in
      let new_name = fresh names "drift_r" in
      let sites = ref 0 in
      let pfns =
        List.map
          (fun (fn : Ast.fndef) ->
            let fbody =
              Ast.map fn.fbody ~expr:(fun (e : Ast.expr) ->
                  match e.e with
                  | Call (n, args) when String.equal n old_name ->
                      incr sites;
                      { e with e = Call (new_name, args) }
                  | _ -> e)
            in
            let fname = if String.equal fn.fname old_name then new_name else fn.fname in
            { fn with fname; fbody })
          p.pfns
      in
      Some
        ( { p with pfns },
          Rename_fn { old_name; new_name; call_sites = !sites } )

let edit_reorder_defs rng (p : Ast.program) =
  let n = List.length p.pfns in
  if n < 2 then None
  else begin
    let from = Rng.int rng n in
    let to_ = (from + 1 + Rng.int rng (n - 1)) mod n in
    let moved = List.nth p.pfns from in
    let rest = List.filteri (fun i _ -> i <> from) p.pfns in
    Some
      ({ p with pfns = insert_at rest to_ moved }, Reorder_defs { moved = moved.Ast.fname })
  end

let edit_retarget_call rng (p : Ast.program) =
  let leaves = List.filter is_leaf p.pfns in
  if leaves = [] then None
  else begin
    (* Enumerate call sites as (function index, call number) with the set
       of viable replacement leaves: same arity, not the enclosing function
       (no recursion), not the current callee. *)
    let cands = ref [] in
    List.iteri
      (fun fi (fn : Ast.fndef) ->
        ignore
          (number_calls
             (fun occ e callee args ->
               if arity_of p callee <> None then begin
                 let viable =
                   List.filter
                     (fun (l : Ast.fndef) ->
                       List.length l.fparams = List.length args
                       && (not (String.equal l.fname fn.fname))
                       && not (String.equal l.fname callee))
                     leaves
                 in
                 if viable <> [] then cands := (fi, occ, callee, viable) :: !cands
               end;
               e)
             fn.fbody))
      p.pfns;
    match List.rev !cands with
    | [] -> None
    | l ->
        let fi, occ, old_callee, viable = Rng.choose rng (Array.of_list l) in
        let new_callee = (Rng.choose rng (Array.of_list viable)).Ast.fname in
        let pfns =
          map_body p fi
            (number_calls (fun o (e : Ast.expr) _ args ->
                 if o = occ then { e with e = Call (new_callee, args) } else e))
        in
        let in_fn = (List.nth p.pfns fi).fname in
        Some ({ p with pfns }, Retarget_call { in_fn; old_callee; new_callee })
  end

(* ------------------------------------------------------------------ *)
(* The script driver.                                                 *)
(* ------------------------------------------------------------------ *)

type kind =
  | K_insert_stmt
  | K_insert_block
  | K_delete_stmt
  | K_add_fn
  | K_remove_fn
  | K_rename_fn
  | K_reorder
  | K_retarget

(* Weighted toward the statement-level edits that dominate real diffs;
   structural edits (rename/remove/reorder) are rarer, as in production
   release-to-release drift. *)
let kind_pool =
  [| K_insert_stmt; K_insert_stmt; K_insert_block; K_delete_stmt; K_delete_stmt;
     K_retarget; K_add_fn; K_rename_fn; K_reorder; K_remove_fn |]

let try_kind rng names p = function
  | K_insert_stmt -> edit_insert_stmt rng names p
  | K_insert_block -> edit_insert_block rng names p
  | K_delete_stmt -> edit_delete_stmt rng p
  | K_add_fn -> edit_add_fn rng names p
  | K_remove_fn -> edit_remove_fn rng p
  | K_rename_fn -> edit_rename_fn rng names p
  | K_reorder -> edit_reorder_defs rng p
  | K_retarget -> edit_retarget_call rng p

let apply ~seed ~edits src =
  if edits <= 0 then { dr_source = src; dr_edits = [] }
  else begin
    let p = F.Parser.parse src in
    let rng = Rng.create seed in
    let names = { used = used_names p; next = 1 } in
    let prog = ref p in
    let log = ref [] in
    for _ = 1 to edits do
      let first = Rng.choose rng kind_pool in
      (* Fall back through the other kinds if the chosen one has no safe
         candidate; insertions always apply, so the script never stalls. *)
      let fallback =
        [ K_delete_stmt; K_retarget; K_rename_fn; K_reorder; K_remove_fn;
          K_add_fn; K_insert_block; K_insert_stmt ]
      in
      let rec attempt = function
        | [] -> assert false
        | k :: rest -> (
            match try_kind rng names !prog k with
            | Some (p', entry) ->
                prog := p';
                log := entry :: !log
            | None -> attempt rest)
      in
      attempt (first :: List.filter (fun k -> k <> first) fallback)
    done;
    { dr_source = F.Pretty.program !prog; dr_edits = List.rev !log }
  end
