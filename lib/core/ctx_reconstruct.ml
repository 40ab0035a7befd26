module Ir = Csspgo_ir
module Mach = Csspgo_codegen.Mach
module Vm = Csspgo_vm
module P = Csspgo_profile
module Pg = Csspgo_profgen
module CP = P.Ctx_profile

type stats = {
  st_samples : int;
  st_dropped_misaligned : int;
  st_gaps_resolved : int;
  st_gaps_failed : int;
}

type stream = {
  sm_feed :
    lbr:(int * int) array -> lbr_len:int -> stack:int array -> stack_len:int -> unit;
  sm_finish : unit -> P.Ctx_profile.t * stats;
}

(* Open-addressing hash map keyed on int triples, over flat arrays: a
   lookup allocates nothing and hashes every word of its key. [find]
   answers the table's [absent] value for a missing key. *)
module Itab = struct
  type 'a t = {
    mutable keys : int array;  (** three per slot; [min_int] marks a free slot *)
    mutable vals : 'a array;
    mutable count : int;
    absent : 'a;
  }

  let create absent =
    { keys = Array.make (3 * 64) min_int; vals = Array.make 64 absent; count = 0; absent }

  (* Linear probing from slot [i]. Top level, not a local closure, so a
     lookup allocates nothing. *)
  let rec probe keys mask a b c i =
    let k = 3 * i in
    let a' = keys.(k) in
    if a' = min_int || (a' = a && keys.(k + 1) = b && keys.(k + 2) = c) then i
    else probe keys mask a b c ((i + 1) land mask)

  (* The slot holding the key, or the free slot where it belongs. *)
  let slot t a b c =
    let mask = Array.length t.vals - 1 in
    let h = ((((a * 0x9E3779B1) + b) * 0x9E3779B1) + c) * 0x9E3779B1 in
    probe t.keys mask a b c ((h lxor (h lsr 29)) land mask)

  let find t a b c = t.vals.(slot t a b c)

  (* The key must be absent. The table doubles past three-quarters load. *)
  let rec add t a b c v =
    if 4 * (t.count + 1) > 3 * Array.length t.vals then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * Array.length keys) min_int;
      t.vals <- Array.make (2 * Array.length vals) t.absent;
      t.count <- 0;
      Array.iteri
        (fun i v ->
          if keys.(3 * i) <> min_int then
            add t keys.(3 * i) keys.((3 * i) + 1) keys.((3 * i) + 2) v)
        vals
    end;
    let i = slot t a b c in
    t.keys.(3 * i) <- a;
    t.keys.((3 * i) + 1) <- b;
    t.keys.((3 * i) + 2) <- c;
    t.vals.(i) <- v;
    t.count <- t.count + 1
end

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

(* One attribution, recorded for replay: the trie nodes it bumps, one code
   per node (probe id [2p], or callsite instruction index [2i + 1]), and
   the gap counters it adds. *)
type memo = {
  m_nodes : CP.node array;
  m_codes : int array;
  m_resolved : int;
  m_failed : int;
  m_inferred : int;
}

let no_memo = { m_nodes = [||]; m_codes = [||]; m_resolved = 0; m_failed = 0; m_inferred = 0 }

(* How a walk crosses from a call site to the function found below it. *)
type gap = No_gap | Gap_failed | Gap_bridged of int * (Ir.Guid.t * int) list

let start ?(name_of = fun _ -> None) ?missing ~checksum_of
    ?(obs = Csspgo_obs.Metrics.null) (ix : Pg.Bindex.t) =
  let b = Pg.Bindex.binary ix in
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
  (* Attribute range [lo, hi] under stack [id]: every probe in it, with its
     inline chain, and every call site's target count. Trie nodes are made
     only for a probe or call site that lands in them. *)
  let resolve lo hi id =
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
    let nodes = ref [] and codes = ref [] in
    let hit n code =
      ensure_checksum n;
      nodes := n :: !nodes;
      codes := code :: !codes
    in
    List.iter
      (fun (pr : Mach.probe_rec) ->
        let cur =
          List.fold_right
            (fun cs cur -> step cur (cs.Ir.Dloc.cs_func, cs.Ir.Dloc.cs_probe))
            pr.Mach.pr_chain (Lazy.force ctx)
        in
        hit (node cur pr.Mach.pr_func) (2 * pr.Mach.pr_id))
      (Probe_corr.probes_in_range b (lo, hi));
    Pg.Bindex.iter_range ix (lo, hi) (fun ii ->
        if Pg.Bindex.cs_probe ix ii > 0 && Option.is_some (Pg.Bindex.callee ix ii) then
          (* The call belongs to the innermost frame of its inline path. *)
          let rec owner cur = function
            | [] -> ()
            | [ (f, _) ] -> hit (node cur f) ((2 * ii) + 1)
            | fr :: rest -> owner (step cur fr) rest
          in
          match Pg.Bindex.level_path ix ii with [] -> () | lp -> owner (Lazy.force ctx) lp);
    let d_resolved, d_failed, d_inferred =
      match gap with
      | No_gap -> (0, 0, 0)
      | Gap_failed -> (0, 1, 0)
      | Gap_bridged (n, _) -> (1, 0, n)
    in
    {
      m_nodes = Array.of_list (List.rev !nodes);
      m_codes = Array.of_list (List.rev !codes);
      m_resolved = w.w_resolved + d_resolved;
      m_failed = w.w_failed + d_failed;
      m_inferred = w.w_inferred + d_inferred;
    }
  in
  let replay m =
    gaps_resolved := !gaps_resolved + m.m_resolved;
    gaps_failed := !gaps_failed + m.m_failed;
    inferred := !inferred + m.m_inferred;
    (* A loop, not an iterator: a closure over [m] would allocate on
       every memo hit. *)
    for k = 0 to Array.length m.m_nodes - 1 do
      let n = m.m_nodes.(k) and code = m.m_codes.(k) in
      if code land 1 = 0 then P.Probe_profile.add_probe n.CP.n_prof (code lsr 1) 1L
      else
        let ii = code lsr 1 in
        match Pg.Bindex.callee ix ii with
        | Some callee ->
            P.Probe_profile.add_call n.CP.n_prof (Pg.Bindex.cs_probe ix ii) callee 1L
        | None -> ()
    done
  in
  (* Attributions repeat wherever a loop runs under one stack. The memo
     is small: recursion keeps making new (range, stack) pairs (91,520 of
     415,616 attributions on haas), so a large memo saves little time and
     costs heap; a key that misses is recomputed, never wrong. *)
  let memo = Itab.create no_memo in
  let memo_cap = 1 lsl 12 in
  let attribute lo hi id =
    if lo > 0 && hi >= lo then begin
      let m = Itab.find memo lo hi id in
      if m != no_memo then replay m
      else begin
        let m = resolve lo hi id in
        replay m;
        if memo.Itab.count < memo_cap then Itab.add memo lo hi id m
      end
    end
  in
  let feed ~lbr ~lbr_len ~stack ~stack_len =
    incr n_samples;
    if lbr_len > 0 && stack_len > 0 then begin
      let _, last_tgt = lbr.(lbr_len - 1) in
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
        let d = min (stack_len - 1) 63 in
        depth_hist.(d) <- depth_hist.(d) + 1;
        let id = ref Stacks.empty in
        for i = stack_len - 1 downto 1 do
          id := push !id stack.(i)
        done;
        (* Newest run: from the last branch target to the sampled ip. *)
        attribute last_tgt stack.(0) !id;
        (* Walk branches newest -> oldest, undoing each one. *)
        for i = lbr_len - 1 downto 1 do
          let cur_src, cur_tgt = lbr.(i) in
          let _, older_tgt = lbr.(i - 1) in
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
let sink s = { Vm.Machine.on_sample = s.sm_feed; on_labels = Vm.Machine.no_labels }

let reconstruct ?name_of ?missing ~checksum_of (b : Mach.binary) samples =
  let st = start ?name_of ?missing ~checksum_of (Pg.Bindex.create b) in
  List.iter
    (fun (s : Vm.Machine.sample) ->
      st.sm_feed ~lbr:s.Vm.Machine.s_lbr
        ~lbr_len:(Array.length s.Vm.Machine.s_lbr)
        ~stack:s.Vm.Machine.s_stack
        ~stack_len:(Array.length s.Vm.Machine.s_stack))
    samples;
  st.sm_finish ()
