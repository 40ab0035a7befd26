open Csspgo_support
module Ir = Csspgo_ir
module I = Ir.Instr
module P = Csspgo_profile
module PP = P.Probe_profile
module LP = P.Line_profile
module CP = P.Ctx_profile
module Obs = Csspgo_obs

type status = Exact | Fuzzy | Dropped

let status_name = function Exact -> "exact" | Fuzzy -> "fuzzy" | Dropped -> "dropped"

type verdict = {
  v_name : string;
  v_guid : Ir.Guid.t;
  v_status : status;
  v_total_in : int64;
  v_recovered : int64;
  v_dropped : int64;
}

type report = {
  r_verdicts : verdict list;
  r_exact : int;
  r_fuzzy : int;
  r_dropped : int;
  r_total_in : int64;
  r_recovered : int64;
  r_dropped_counts : int64;
}

let recovery_rate r =
  if Int64.compare r.r_total_in 0L <= 0 then 1.0
  else Int64.to_float r.r_recovered /. Int64.to_float r.r_total_in

let report_to_string r =
  let buf = Buffer.create 256 in
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "%-24s %-7s in=%Ld recovered=%Ld dropped=%Ld\n" v.v_name
           (status_name v.v_status) v.v_total_in v.v_recovered v.v_dropped))
    r.r_verdicts;
  Buffer.add_string buf
    (Printf.sprintf "total: %d exact, %d fuzzy, %d dropped; counts %Ld/%Ld recovered (%.4f)\n"
       r.r_exact r.r_fuzzy r.r_dropped r.r_recovered r.r_total_in (recovery_rate r));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Verdicts: one accumulator per function, shared by the three matchers. *)
(* ------------------------------------------------------------------ *)

type fmatch = { fm_exact : bool; fm_recovered : int64; fm_dropped : int64 }

let node_status ~total fm =
  if fm.fm_exact && Int64.equal fm.fm_dropped 0L then Exact
  else if Int64.equal fm.fm_recovered 0L && Int64.compare total 0L > 0 then Dropped
  else Fuzzy

(* A function's verdict aggregates its nodes: every context node of a
   trie, or the single entry of a flat profile. *)
type facc = {
  fa_name : string;
  mutable fa_nodes : int;
  mutable fa_exact : int;
  mutable fa_dropped : int;
  mutable fa_total : int64;
  mutable fa_recovered : int64;
  mutable fa_dropped_counts : int64;
}

let record faccs g name ~total ~recovered ~dropped status =
  let a =
    match Ir.Guid.Tbl.find_opt faccs g with
    | Some a -> a
    | None ->
        let a =
          { fa_name = name; fa_nodes = 0; fa_exact = 0; fa_dropped = 0;
            fa_total = 0L; fa_recovered = 0L; fa_dropped_counts = 0L }
        in
        Ir.Guid.Tbl.replace faccs g a;
        a
  in
  a.fa_nodes <- a.fa_nodes + 1;
  (match status with
  | Exact -> a.fa_exact <- a.fa_exact + 1
  | Dropped -> a.fa_dropped <- a.fa_dropped + 1
  | Fuzzy -> ());
  a.fa_total <- Int64.add a.fa_total total;
  a.fa_recovered <- Int64.add a.fa_recovered recovered;
  a.fa_dropped_counts <- Int64.add a.fa_dropped_counts dropped

(* Verdicts sort by name; equal names (distinct guids) by descending
   guid, so the order never depends on the table's layout. *)
let close_report ?(obs = Obs.Metrics.null) faccs =
  let verdicts =
    Ir.Guid.Tbl.fold
      (fun g a acc ->
        let status =
          if a.fa_exact = a.fa_nodes then Exact
          else if a.fa_dropped = a.fa_nodes then Dropped
          else Fuzzy
        in
        { v_name = a.fa_name; v_guid = g; v_status = status; v_total_in = a.fa_total;
          v_recovered = a.fa_recovered; v_dropped = a.fa_dropped_counts }
        :: acc)
      faccs []
    |> List.sort (fun a b ->
           match compare a.v_name b.v_name with
           | 0 -> Ir.Guid.compare b.v_guid a.v_guid
           | c -> c)
  in
  let count st = List.length (List.filter (fun v -> v.v_status = st) verdicts) in
  let sum f = List.fold_left (fun acc v -> Int64.add acc (f v)) 0L verdicts in
  let r =
    {
      r_verdicts = verdicts;
      r_exact = count Exact;
      r_fuzzy = count Fuzzy;
      r_dropped = count Dropped;
      r_total_in = sum (fun v -> v.v_total_in);
      r_recovered = sum (fun v -> v.v_recovered);
      r_dropped_counts = sum (fun v -> v.v_dropped);
    }
  in
  Obs.Metrics.bump (Obs.Metrics.counter obs "stale.funcs-exact") r.r_exact;
  Obs.Metrics.bump (Obs.Metrics.counter obs "stale.funcs-fuzzy") r.r_fuzzy;
  Obs.Metrics.bump (Obs.Metrics.counter obs "stale.funcs-dropped") r.r_dropped;
  Obs.Metrics.bump
    (Obs.Metrics.counter obs "stale.counts-recovered")
    (Int64.to_int r.r_recovered);
  Obs.Metrics.bump
    (Obs.Metrics.counter obs "stale.counts-dropped")
    (Int64.to_int r.r_dropped_counts);
  r

(* Everything an entry holds: its head, every count and every call count. *)
let entry_total sh fe =
  let t = ref (sh.P.Counts.head fe) in
  Hashtbl.iter (fun _ c -> t := Int64.add !t c) (sh.P.Counts.counts fe);
  Hashtbl.iter
    (fun _ targets -> Hashtbl.iter (fun _ c -> t := Int64.add !t c) targets)
    (sh.P.Counts.calls fe);
  !t

(* A flat profile's functions, in guid order, each one node. A function
   missing from [target] drops whole; [transfer] moves any other onto
   its new function and accounts every count. *)
let match_flat ?obs ~target sh funcs ~names ~transfer =
  let faccs = Ir.Guid.Tbl.create 32 in
  List.iter
    (fun (g, fe) ->
      let name = Option.value (Ir.Guid.Tbl.find_opt names g) ~default:"?" in
      let total = entry_total sh fe in
      match Ir.Program.find_func_by_guid target g with
      | None -> record faccs g name ~total ~recovered:0L ~dropped:total Dropped
      | Some f ->
          let fm = transfer f g name fe in
          record faccs g name ~total ~recovered:fm.fm_recovered ~dropped:fm.fm_dropped
            (node_status ~total fm))
    (P.Counts.sorted_funcs funcs);
  close_report ?obs faccs

(* ------------------------------------------------------------------ *)
(* Callee-anchor alignment, shared by the probe and line matchers.     *)
(* ------------------------------------------------------------------ *)

(* Highest-count callee of a callsite's target table; ties break toward the
   smaller guid so the anchor choice is schedule-independent. *)
let top_callee targets =
  Hashtbl.fold
    (fun g c best ->
      match best with
      | Some (bg, bc)
        when Int64.compare c bc < 0 || (Int64.equal c bc && Ir.Guid.compare g bg >= 0) ->
          best
      | _ -> Some (g, c))
    targets None

(* (key, dominant callee) of every call record with a target. *)
let dominant_callees calls =
  Hashtbl.fold
    (fun k targets acc ->
      match top_callee targets with Some (g, _) -> (k, g) :: acc | None -> acc)
    calls []

(* Old keys whose callee is g pair up, in key order, with new keys
   statically calling g; the anchors come back sorted. [old_keys] can name
   one key twice (a context node's call record and a child frame key), so
   each group is deduplicated before the zip. *)
let callee_anchors old_keys new_keys =
  let by_callee keys =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (k, g) ->
        Hashtbl.replace tbl g (k :: Option.value (Hashtbl.find_opt tbl g) ~default:[]))
      keys;
    tbl
  in
  let new_by = by_callee new_keys in
  let rec zip acc a b =
    match (a, b) with x :: a', y :: b' -> zip ((x, y) :: acc) a' b' | _ -> acc
  in
  Hashtbl.fold
    (fun g old acc ->
      match Hashtbl.find_opt new_by g with
      | None -> acc
      | Some nw -> zip acc (List.sort_uniq compare old) (List.sort_uniq compare nw))
    (by_callee old_keys) []
  |> List.sort compare

(* An anchor's key maps to its partner. Any other key moves by the delta
   of the nearest preceding anchor, measured on [pos] (the probe id, or
   the line number); the caller decides whether the shifted key is
   valid. *)
let shift ~pos ~move anchors k =
  match List.assoc_opt k anchors with
  | Some k' -> `Anchor k'
  | None ->
      let p = pos k in
      `Shifted
        (move k
           (List.fold_left (fun d (o, n) -> if pos o <= p then pos n - pos o else d) 0 anchors))

(* ------------------------------------------------------------------ *)
(* Probe matching.                                                     *)
(* ------------------------------------------------------------------ *)

type tprobe = {
  tp_fn : Ir.Func.t;
  tp_blocks : (int, unit) Hashtbl.t;  (* valid block probe ids *)
  tp_sites : (int, Ir.Guid.t) Hashtbl.t;  (* callsite probe id -> static callee *)
}

let probe_info (f : Ir.Func.t) =
  let blocks = Hashtbl.create 16 in
  let sites = Hashtbl.create 8 in
  Ir.Func.iter_blocks
    (fun b ->
      Vec.iter
        (fun (i : I.t) ->
          match i.I.op with
          | I.Probe p when p.I.p_kind = I.Block_probe -> Hashtbl.replace blocks p.I.p_id ()
          | I.Call c when c.I.c_probe > 0 ->
              Hashtbl.replace sites c.I.c_probe (Ir.Guid.of_name c.I.c_callee)
          | _ -> ())
        b.Ir.Block.instrs)
    f;
  { tp_fn = f; tp_blocks = blocks; tp_sites = sites }

let checksum_ok (fe : PP.fentry) tp =
  Int64.equal fe.PP.fe_checksum 0L
  || Int64.equal fe.PP.fe_checksum tp.tp_fn.Ir.Func.checksum

(* Where each old call site lands. A matching checksum keeps the id; on a
   mismatch, sites re-anchor by callee. Either way the site must be a
   callsite probe of the new function. [extra] supplies (old site, callee)
   evidence beyond the fentry's own call records: context-trie children
   carry their callee in the frame key even when the node profile has no
   callsite counts. *)
let site_mapping ?(extra = fun () -> []) (fe : PP.fentry) (tp : tprobe) =
  let valid s = if Hashtbl.mem tp.tp_sites s then Some s else None in
  if checksum_ok fe tp then valid
  else
    let anchors =
      callee_anchors
        (dominant_callees fe.PP.fe_calls @ extra ())
        (Hashtbl.fold (fun s g acc -> (s, g) :: acc) tp.tp_sites [])
    in
    fun s ->
      match shift ~pos:Fun.id ~move:( + ) anchors s with
      | `Anchor s' -> Some s'
      | `Shifted s' -> valid s'

(* Transfer one probe fentry onto [out], mapping ids per the target's shape.
   Every input count lands in fm_recovered or fm_dropped. *)
let match_probe_fentry ~(prog : Ir.Program.t) ~(tp : tprobe) (fe : PP.fentry)
    (out : PP.fentry) =
  (* Checksum match guarantees the block shape, so ids carry over; call
     sites are still validated (a deleted straight-line call changes no
     block). On a mismatch, blocks keep their id only if it still exists
     and call sites re-anchor by callee. *)
  let map_block p = if Hashtbl.mem tp.tp_blocks p then Some p else None in
  let map_site = site_mapping fe tp in
  let recovered = ref 0L in
  let dropped = ref 0L in
  out.PP.fe_head <- Int64.add out.PP.fe_head fe.PP.fe_head;
  recovered := Int64.add !recovered fe.PP.fe_head;
  Hashtbl.iter
    (fun p c ->
      match map_block p with
      | Some p' ->
          PP.add_probe out p' c;
          recovered := Int64.add !recovered c
      | None -> dropped := Int64.add !dropped c)
    fe.PP.fe_probes;
  Hashtbl.iter
    (fun s targets ->
      match map_site s with
      | None -> Hashtbl.iter (fun _ c -> dropped := Int64.add !dropped c) targets
      | Some s' ->
          Hashtbl.iter
            (fun g c ->
              if Option.is_some (Ir.Program.find_func_by_guid prog g) then begin
                PP.add_call out s' g c;
                recovered := Int64.add !recovered c
              end
              else dropped := Int64.add !dropped c)
            targets)
    fe.PP.fe_calls;
  let exact = checksum_ok fe tp && Int64.equal !dropped 0L in
  out.PP.fe_checksum <- tp.tp_fn.Ir.Func.checksum;
  { fm_exact = exact; fm_recovered = !recovered; fm_dropped = !dropped }

let match_probe ?obs ~target (prof : PP.t) =
  let out = PP.create () in
  let rep =
    match_flat ?obs ~target PP.shape prof.PP.funcs ~names:prof.PP.names
      ~transfer:(fun f g name fe ->
        let tp = probe_info f in
        match_probe_fentry ~prog:target ~tp fe (PP.get_or_add out g ~name))
  in
  (out, rep)

(* ------------------------------------------------------------------ *)
(* Line (DWARF/AutoFDO) matching.                                      *)
(* ------------------------------------------------------------------ *)

type tline = {
  tl_keys : (LP.key, unit) Hashtbl.t;  (* valid (line offset, discriminator) *)
  tl_calls : (LP.key, Ir.Guid.t) Hashtbl.t;  (* call-instruction keys *)
}

let line_info (f : Ir.Func.t) =
  let keys = Hashtbl.create 32 in
  let calls = Hashtbl.create 8 in
  Ir.Func.iter_blocks
    (fun b ->
      Vec.iter
        (fun (i : I.t) ->
          let d = i.I.dloc in
          if (not (Ir.Dloc.is_none d)) && Ir.Guid.equal d.Ir.Dloc.origin f.Ir.Func.guid
          then begin
            let k = (d.Ir.Dloc.line, d.Ir.Dloc.disc) in
            Hashtbl.replace keys k ();
            match i.I.op with
            | I.Call c -> Hashtbl.replace calls k (Ir.Guid.of_name c.I.c_callee)
            | _ -> ()
          end)
        b.Ir.Block.instrs)
    f;
  { tl_keys = keys; tl_calls = calls }

let nn_radius = 2

(* Map one key through the anchors; a shifted key that misses falls back
   to the nearest valid key of [valid] within [nn_radius] lines. Full
   lexicographic tie ordering keeps the choice deterministic. *)
let map_key ~anchors ~valid (k : LP.key) =
  match shift ~pos:fst ~move:(fun (l, d) delta -> (l + delta, d)) anchors k with
  | `Anchor k' -> Some k'
  | `Shifted cand when Hashtbl.mem valid cand -> Some cand
  | `Shifted (l, d) ->
      let best = ref None in
      Hashtbl.iter
        (fun (l', d') _ ->
          let cost = (abs (l' - l), abs (d' - d), l', d') in
          if abs (l' - l) <= nn_radius then
            match !best with
            | Some (bcost, _) when compare bcost cost <= 0 -> ()
            | _ -> best := Some (cost, (l', d')))
        valid;
      Option.map snd !best

let match_line_fentry ~(prog : Ir.Program.t) ~(tl : tline) (fe : LP.fentry)
    (out : LP.fentry) =
  let identity_ok =
    Hashtbl.fold (fun k _ ok -> ok && Hashtbl.mem tl.tl_keys k) fe.LP.fe_lines true
    && Hashtbl.fold (fun k _ ok -> ok && Hashtbl.mem tl.tl_calls k) fe.LP.fe_calls true
  in
  let map_line, map_call =
    if identity_ok then (Option.some, Option.some)
    else
      let anchors =
        callee_anchors
          (dominant_callees fe.LP.fe_calls)
          (Hashtbl.fold (fun k g acc -> (k, g) :: acc) tl.tl_calls [])
      in
      (map_key ~anchors ~valid:tl.tl_keys, map_key ~anchors ~valid:tl.tl_calls)
  in
  let recovered = ref 0L in
  let dropped = ref 0L in
  out.LP.fe_head <- Int64.add out.LP.fe_head fe.LP.fe_head;
  recovered := Int64.add !recovered fe.LP.fe_head;
  (* Canonical-order walk: merged keys accumulate in a fixed order. *)
  List.iter
    (fun (k, c) ->
      match map_line k with
      | Some k' ->
          LP.add_line out k' c;
          recovered := Int64.add !recovered c
      | None -> dropped := Int64.add !dropped c)
    (P.Counts.sorted LP.shape fe);
  List.iter
    (fun (k, g, c) ->
      match map_call k with
      | Some k' when Option.is_some (Ir.Program.find_func_by_guid prog g) ->
          LP.add_call out k' g c;
          recovered := Int64.add !recovered c
      | _ -> dropped := Int64.add !dropped c)
    (P.Counts.sorted_calls LP.shape fe);
  { fm_exact = identity_ok && Int64.equal !dropped 0L;
    fm_recovered = !recovered;
    fm_dropped = !dropped }

let match_line ?obs ~target (prof : LP.t) =
  let out = LP.create () in
  let rep =
    match_flat ?obs ~target LP.shape prof.LP.funcs ~names:prof.LP.names
      ~transfer:(fun f g name fe ->
        let tl = line_info f in
        match_line_fentry ~prog:target ~tl fe (LP.get_or_add out g ~name))
  in
  (out, rep)

(* ------------------------------------------------------------------ *)
(* Context-trie matching.                                              *)
(* ------------------------------------------------------------------ *)

let match_ctx ?obs ~target (trie : CP.t) =
  let out = CP.create () in
  let faccs = Ir.Guid.Tbl.create 32 in
  let sorted_children (n : CP.node) =
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) n.CP.n_children []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (* Account a whole unattachable subtree as dropped. *)
  let rec drop_subtree (n : CP.node) =
    let total = entry_total PP.shape n.CP.n_prof in
    record faccs n.CP.n_func n.CP.n_name ~total ~recovered:0L ~dropped:total Dropped;
    List.iter (fun (_, c) -> drop_subtree c) (sorted_children n)
  in
  (* [path_rev]: node_at path to the current node's attachment point in the
     matched trie, innermost last; spelled entirely in the *target* binary's
     guids, which diverge from the node's own when a rename was followed.
     [fn] is the target function the node lands on; [renamed] caps the node
     verdict at Fuzzy — rename recovery is inference, not identity. *)
  let rec walk (n : CP.node) ~(fn : Ir.Func.t) ~renamed ~path_rev =
    let tp = probe_info fn in
    let new_node =
      match path_rev with
      | [] -> CP.base out fn.Ir.Func.guid ~name:n.CP.n_name
      | path -> (
          match CP.node_at out ~path:(List.rev path) with
          | Some nd -> nd
          | None -> assert false (* non-empty path *))
    in
    let total = entry_total PP.shape n.CP.n_prof in
    let fm = match_probe_fentry ~prog:target ~tp n.CP.n_prof new_node.CP.n_prof in
    if n.CP.n_inlined then new_node.CP.n_inlined <- true;
    let status =
      match node_status ~total fm with Exact when renamed -> Fuzzy | s -> s
    in
    record faccs n.CP.n_func n.CP.n_name ~total ~recovered:fm.fm_recovered
      ~dropped:fm.fm_dropped status;
    (* The children's frame keys are callsite evidence in their own right:
       a node profile without callsite counts would otherwise leave the
       mapping anchorless and drop spellable chains. *)
    let map_site =
      site_mapping n.CP.n_prof tp ~extra:(fun () ->
          Hashtbl.fold
            (fun ((site, g) : CP.frame_key) _ acc -> (site, g) :: acc)
            n.CP.n_children [])
    in
    List.iter
      (fun (((site, child_guid) : CP.frame_key), (child : CP.node)) ->
        match map_site site with
        | None -> drop_subtree child
        | Some site' -> (
            match Ir.Program.find_func_by_guid target child_guid with
            | Some cf ->
                walk child ~fn:cf ~renamed
                  ~path_rev:
                    (((fn.Ir.Func.guid, site'), child_guid, child.CP.n_name)
                     :: path_rev)
            | None -> (
                (* The callee guid is gone, but the caller's callsite
                   survived the drift. If the new static callee at that
                   site has the same body checksum the node recorded, the
                   function was renamed, not replaced — follow it under
                   its new identity. Flat matching has no such anchor and
                   must drop renamed functions wholesale. *)
                match Hashtbl.find_opt tp.tp_sites site' with
                | Some g' -> (
                    match Ir.Program.find_func_by_guid target g' with
                    | Some cf
                      when (not (Int64.equal cf.Ir.Func.checksum 0L))
                           && Int64.equal child.CP.n_prof.PP.fe_checksum
                                cf.Ir.Func.checksum ->
                        walk child ~fn:cf ~renamed:true
                          ~path_rev:
                            (((fn.Ir.Func.guid, site'), g', cf.Ir.Func.name)
                             :: path_rev)
                    | _ -> drop_subtree child)
                | None -> drop_subtree child)))
      (sorted_children n)
  in
  let roots =
    Ir.Guid.Tbl.fold (fun g n acc -> (g, n) :: acc) trie.CP.roots []
    |> List.sort (fun (a, _) (b, _) -> Ir.Guid.compare a b)
  in
  List.iter
    (fun (_, n) ->
      match Ir.Program.find_func_by_guid target n.CP.n_func with
      | None -> drop_subtree n
      | Some f -> walk n ~fn:f ~renamed:false ~path_rev:[])
    roots;
  (out, close_report ?obs faccs)

let route ?obs ~target (profile, flat) =
  let profile, rep =
    match profile with
    | P.Text_io.Line_prof lp ->
        let lp, rep = match_line ?obs ~target lp in
        (P.Text_io.Line_prof lp, rep)
    | P.Text_io.Probe_prof pp ->
        let pp, rep = match_probe ?obs ~target pp in
        (P.Text_io.Probe_prof pp, rep)
    | P.Text_io.Ctx_prof trie ->
        let trie, rep = match_ctx ?obs ~target trie in
        (P.Text_io.Ctx_prof trie, rep)
  in
  (* The flat baseline rides the same routing; its verdicts would
     double-count the profile's, so no obs here. *)
  let flat = Option.map (fun f -> fst (match_probe ~target f)) flat in
  ((profile, flat), rep)
