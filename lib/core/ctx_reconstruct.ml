module Ir = Csspgo_ir
module Mach = Csspgo_codegen.Mach
module P = Csspgo_profile
module Pg = Csspgo_profgen
module CP = P.Ctx_profile
module Itab = Csspgo_support.Itab

type stats = {
  st_samples : int;
  st_dropped_misaligned : int;
  st_gaps_resolved : int;
  st_gaps_failed : int;
}

type stream = {
  sm_feed : lbr:int array -> lbr_len:int -> stack:int array -> stack_len:int -> unit;
  sm_finish : unit -> P.Ctx_profile.t * stats;
}

module Stacks = struct
  type t = {
    mutable parent : int array;
    mutable top : int array;
    mutable n : int;
    children : int Itab.t;
  }

  let empty = 0

  let create () =
    { parent = Array.make 64 empty; top = Array.make 64 0; n = 1; children = Itab.create (-1) }

  let push t id addr =
    match Itab.find t.children id addr 0 with
    | -1 ->
        let c = t.n in
        if c = Array.length t.parent then begin
          t.parent <- Array.append t.parent (Array.make c empty);
          t.top <- Array.append t.top (Array.make c 0)
        end;
        t.parent.(c) <- id;
        t.top.(c) <- addr;
        t.n <- c + 1;
        Itab.add t.children id addr 0 c;
        c
    | c -> c

  let pop t id = t.parent.(id)

  let rec frames t id = if id = empty then [] else t.top.(id) :: frames t t.parent.(id)
end

(* A position in the trie: [Root] before the outermost frame, else the
   node reached and the callsite probe its next callee hangs off. *)
type cursor = Root | At of CP.node * int

(* The outermost-first walk of one interned stack's return addresses,
   computed once per stack from its parent's walk. Its caller path is
   [w_ext] appended to stack [w_base]'s path, or to the empty path when
   [w_base < 0] (a truncated context). *)
type walk = {
  w_base : int;
  w_ext : (Ir.Guid.t * int) list;
  w_expected : Ir.Guid.t option;  (** the callee the innermost call names *)
  w_resolved : int;  (** gap counters, summed over the walk *)
  w_failed : int;
  w_inferred : int;
  mutable w_cursor : cursor option;  (** the path's trie position, once needed *)
}

(* How a walk crosses from a call site to the function found below it. *)
type gap = No_gap | Gap_failed | Gap_bridged of int * (Ir.Guid.t * int) list

let start ~name_of ?missing ~checksum_of
    ?(obs = Csspgo_obs.Metrics.null) (ix : Pg.Bindex.t) =
  let trie = CP.create () in
  (* Only a node being created needs a name. *)
  let name_for guid =
    match name_of guid with Some n -> n | None -> Format.asprintf "%a" Ir.Guid.pp guid
  in
  let dropped = ref 0 in
  let gaps_resolved = ref 0 in
  let gaps_failed = ref 0 in
  let n_samples = ref 0 in
  (* Telemetry accumulated locally and flushed once in [finish]; the
     feed path never touches the registry, so attribution (and the
     byte-identity oracle it feeds) is unchanged by observation. *)
  let inferred = ref 0 in
  let depth_hist = Array.make 64 0 in
  (* A root gets its real name whichever sample reaches it first, so shard
     tries name their roots as the serial trie does. *)
  let node cur g =
    match cur with
    | Root -> (
        match Ir.Guid.Tbl.find_opt trie.CP.roots g with
        | Some n -> n
        | None -> CP.base trie g ~name:(name_for g))
    | At (parent, site) -> (
        match Hashtbl.find_opt parent.CP.n_children (site, g) with
        | Some n -> n
        | None -> CP.attach trie ~parent:(Some parent) ~site g ~name:(name_for g))
  in
  let step cur (g, site) = At (node cur g, site) in
  let ensure_checksum (node : CP.node) =
    if Int64.equal node.CP.n_prof.P.Probe_profile.fe_checksum 0L then
      node.CP.n_prof.P.Probe_profile.fe_checksum <- checksum_of node.CP.n_func
  in
  (* A call site naming [expected] whose next frame runs [to_func]: tail
     calls dropped the frames between, which the missing-frame table may
     restore. *)
  let bridge expected to_func =
    match expected with
    | Some exp when not (Ir.Guid.equal exp to_func) -> (
        match
          Option.bind missing (fun mf -> Missing_frame.resolve mf ~from_func:exp ~to_func)
        with
        | Some chain ->
            Gap_bridged
              ( List.length chain,
                List.concat_map
                  (fun addr ->
                    let ti = Pg.Bindex.idx_of_addr ix addr in
                    if ti >= 0 then Pg.Bindex.level_path ix ti else [])
                  chain )
        | None -> Gap_failed)
    | _ -> No_gap
  in
  let stacks = Stacks.create () in
  let root_walk =
    {
      w_base = -1;
      w_ext = [];
      w_expected = None;
      w_resolved = 0;
      w_failed = 0;
      w_inferred = 0;
      w_cursor = Some Root;
    }
  in
  let walks = ref (Array.make 64 root_walk) and n_walks = ref 1 in
  (* Extend stack [parent]'s walk by return address [ret]: the inline
     frames of the call before it, after repairing a tail-call gap. A
     return address that follows no call truncates the context. *)
  let walk_of parent ret =
    let p = !walks.(parent) in
    match Pg.Bindex.call_idx_before ix ret with
    | -1 -> { p with w_base = -1; w_ext = []; w_expected = None; w_cursor = None }
    | ci -> (
        let w =
          {
            p with
            w_base = parent;
            w_ext = Pg.Bindex.level_path ix ci;
            w_expected = Pg.Bindex.callee ix ci;
            w_cursor = None;
          }
        in
        match bridge p.w_expected (Pg.Bindex.container ix ci) with
        | No_gap -> w
        | Gap_failed -> { w with w_base = -1; w_failed = w.w_failed + 1 }
        | Gap_bridged (n, frames) ->
            {
              w with
              w_ext = frames @ w.w_ext;
              w_resolved = w.w_resolved + 1;
              w_inferred = w.w_inferred + n;
            })
  in
  let push id ret =
    let c = Stacks.push stacks id ret in
    if c = !n_walks then begin
      if c = Array.length !walks then walks := Array.append !walks (Array.make c root_walk);
      !walks.(c) <- walk_of id ret;
      incr n_walks
    end;
    c
  in
  let rec cursor id =
    let w = !walks.(id) in
    match w.w_cursor with
    | Some c -> c
    | None ->
        let c =
          List.fold_left step (if w.w_base < 0 then Root else cursor w.w_base) w.w_ext
        in
        w.w_cursor <- Some c;
        c
  in
  (* Attribute range [lo, hi] under stack [id], [count] times over: every
     probe in it, with its inline chain, and every call site's target
     count, plus the walk's and the leaf level's gap counters. Trie nodes
     are made only for a probe or call site that lands in them. *)
  let resolve lo hi id count =
    let w = !walks.(id) in
    (* The leaf level: tail calls between the innermost caller and the
       range's own function. *)
    let gap =
      match Pg.Bindex.func_guid_of_addr ix lo with
      | Some f -> bridge w.w_expected f
      | None -> No_gap
    in
    let ctx =
      lazy
        (match gap with
        | No_gap -> cursor id
        | Gap_failed -> Root
        | Gap_bridged (_, frames) -> List.fold_left step (cursor id) frames)
    in
    (* Boxed once per key, not per bump: with every branch unboxable the
       compiler would keep [n] unboxed and box it again at each use. [1L]
       is a constant, so a key seen once allocates no count at all. *)
    let n = if count = 1 then 1L else Sys.opaque_identity (Int64.of_int count) in
    let hit node =
      ensure_checksum node;
      node.CP.n_prof
    in
    Pg.Bindex.iter_probes ix (lo, hi) (fun pr ->
        let cur =
          List.fold_right
            (fun cs cur -> step cur (cs.Ir.Dloc.cs_func, cs.Ir.Dloc.cs_probe))
            pr.Mach.pr_chain (Lazy.force ctx)
        in
        P.Probe_profile.add_probe (hit (node cur pr.Mach.pr_func)) pr.Mach.pr_id n);
    Pg.Bindex.iter_range ix (lo, hi) (fun ii ->
        match Pg.Bindex.callee ix ii with
        | Some callee when Pg.Bindex.cs_probe ix ii > 0 -> (
            (* The call belongs to the innermost frame of its inline path. *)
            let rec owner cur = function
              | [] -> ()
              | [ (f, _) ] ->
                  P.Probe_profile.add_call (hit (node cur f)) (Pg.Bindex.cs_probe ix ii) callee n
              | fr :: rest -> owner (step cur fr) rest
            in
            match Pg.Bindex.level_path ix ii with [] -> () | lp -> owner (Lazy.force ctx) lp)
        | _ -> ());
    let d_resolved, d_failed, d_inferred =
      match gap with
      | No_gap -> (0, 0, 0)
      | Gap_failed -> (0, 1, 0)
      | Gap_bridged (n, _) -> (1, 0, n)
    in
    gaps_resolved := !gaps_resolved + (count * (w.w_resolved + d_resolved));
    gaps_failed := !gaps_failed + (count * (w.w_failed + d_failed));
    inferred := !inferred + (count * (w.w_inferred + d_inferred))
  in
  (* Attributions repeat wherever a loop runs under one stack (415,616
     attributions fall on 91,520 keys on haas), so [feed] only counts
     them: [slot] numbers each (range start, range end, stack id) key in
     first-seen order, and [seen] holds slot [s]'s key and count at
     [4s .. 4s + 3]. [finish] resolves each key once, in that order.
     Every trie node and table entry is therefore created in the order a
     per-attribution pass would create it. *)
  let slot = Itab.create (-1) in
  let seen = ref (Array.make (4 * 256) 0) and n_seen = ref 0 in
  let attribute lo hi id =
    if lo > 0 && hi >= lo then
      match Itab.find slot lo hi id with
      | -1 ->
          let s = !n_seen in
          if 4 * s = Array.length !seen then begin
            let a = Array.make (8 * s) 0 in
            Array.blit !seen 0 a 0 (4 * s);
            seen := a
          end;
          let v = !seen in
          v.(4 * s) <- lo;
          v.((4 * s) + 1) <- hi;
          v.((4 * s) + 2) <- id;
          v.((4 * s) + 3) <- 1;
          n_seen := s + 1;
          Itab.add slot lo hi id s
      | s -> !seen.((4 * s) + 3) <- !seen.((4 * s) + 3) + 1
  in
  let feed ~lbr ~lbr_len ~stack ~stack_len =
    incr n_samples;
    if lbr_len > 0 && stack_len > 0 then begin
      let last_tgt = lbr.((2 * lbr_len) - 1) in
      (* Synchronization check: the sampled leaf frame must live in the
         function the last LBR branch landed in. *)
      let aligned =
        match
          (Pg.Bindex.func_guid_of_addr ix stack.(0), Pg.Bindex.func_guid_of_addr ix last_tgt)
        with
        | Some a, Some c -> Ir.Guid.equal a c
        | _ -> false
      in
      if not aligned then incr dropped
      else begin
        let d = if stack_len <= 64 then stack_len - 1 else 63 in
        depth_hist.(d) <- depth_hist.(d) + 1;
        let id = ref Stacks.empty in
        for i = stack_len - 1 downto 1 do
          id := push !id stack.(i)
        done;
        (* Newest run: from the last branch target to the sampled ip. *)
        attribute last_tgt stack.(0) !id;
        (* Walk branches newest -> oldest, undoing each one. *)
        for i = lbr_len - 1 downto 1 do
          let cur_src = lbr.(2 * i) and cur_tgt = lbr.((2 * i) + 1) in
          let older_tgt = lbr.((2 * i) - 1) in
          (match Pg.Bindex.kind_of_addr ix cur_src with
          | Pg.Bindex.K_call -> id := Stacks.pop stacks !id
          | Pg.Bindex.K_ret -> id := push !id cur_tgt
          | Pg.Bindex.K_tail_call | Pg.Bindex.K_other -> ());
          attribute older_tgt cur_src !id
        done
      end
    end
  in
  let finish () =
    let v = !seen in
    for s = 0 to !n_seen - 1 do
      resolve v.(4 * s) v.((4 * s) + 1) v.((4 * s) + 2) v.((4 * s) + 3)
    done;
    (let module M = Csspgo_obs.Metrics in
     M.bump (M.counter obs "ctx.samples") !n_samples;
     M.bump (M.counter obs "ctx.dropped-misaligned") !dropped;
     M.bump (M.counter obs "ctx.gaps-resolved") !gaps_resolved;
     M.bump (M.counter obs "ctx.gaps-failed") !gaps_failed;
     M.bump (M.counter obs "ctx.inferred-frames") !inferred;
     let h = M.histogram obs "ctx.context-depth" in
     Array.iteri (fun d count -> if count > 0 then M.observe_n h d count) depth_hist);
    ( trie,
      {
        st_samples = !n_samples;
        st_dropped_misaligned = !dropped;
        st_gaps_resolved = !gaps_resolved;
        st_gaps_failed = !gaps_failed;
      } )
  in
  { sm_feed = feed; sm_finish = finish }

let feed s ~lbr ~lbr_len ~stack ~stack_len = s.sm_feed ~lbr ~lbr_len ~stack ~stack_len
let finish s = s.sm_finish ()
