open Csspgo_support
module Ir = Csspgo_ir
module Mach = Csspgo_codegen.Mach
module T = Ir.Types

type pmu = {
  sample_period : int;
  lbr_depth : int;
  pebs : bool;
  skid_prob : float;
  seed : int64;
}

let default_pmu =
  { sample_period = 9973; lbr_depth = 16; pebs = true; skid_prob = 0.35; seed = 42L }

type sink = {
  on_sample : lbr:int array -> lbr_len:int -> stack:int array -> stack_len:int -> unit;
  on_labels : Csspgo_support.Label_set.t -> unit;
}

let no_labels (_ : Csspgo_support.Label_set.t) = ()

type result = {
  cycles : int64;
  instructions : int64;
  ret_value : int64;
  n_samples : int;
  counters : int64 array;
  icache_misses : int64;
  taken_branches : int64;
  mispredicts : int64;
  value_profiles : (int, (int64, int64) Hashtbl.t) Hashtbl.t;
}

exception Trap of string

(* ------------------------------------------------------------------ *)
(* Decoded representation: names and guids resolved to dense indices,
   addresses resolved to instruction indices where possible. An operand is
   one int: [o >= 0] is a word offset into the current frame (registers
   [0, n_phys), then spill slot [s] at [n_phys + s]); [o < 0] is the
   immediate at [lnot o] in the binary's constant pool. A location
   ([Mach.loc option]) is a frame offset, or -1 for none. *)

module A1 = Bigarray.Array1

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

let words n : words = A1.create Bigarray.int64 Bigarray.c_layout (max n 1)

type dop =
  | DArith of T.binop * int * int * int * int  (* op, cycles, dst, a, b *)
  | DCmp of T.cmpop * int * int * int
  | DSelect of int * int * int * int
  | DMov of int * int
  | DLoad of int * int * int         (* global index *)
  | DStore of int * int * int
  | DSpill_ld of int * int           (* register, slot offset *)
  | DSpill_st of int * int           (* slot offset, register *)
  | DCall of dcall
  | DTail_call of dcall
  | DRet of int
  | DJmp of int                      (* instruction index *)
  | DJcc of int * bool * int
  | DSwitch of int * words * int array * int  (* keys, targets, default *)
  | DInc of int
  | DValprof of int * int
  | DNop

and dcall = {
  d_func : int;        (* bfunc index *)
  d_entry : int;       (* entry instruction index *)
  d_args : int array;
  d_ret : int;
  d_spill_args : int;  (* number of OSpill arguments, for the cost model *)
}

type decoded = {
  dops : dop array;
  consts : words;
  entry_idx : int Ir.Guid.Tbl.t;
  frame_words : int array;     (* per function: n_phys + max nslots 1 *)
  param_offs : int array array;
  max_args : int;
}

let n_phys = Mach.n_phys
let is_spill o = o >= n_phys

let decode (b : Mach.binary) =
  let gindex = Hashtbl.create 16 in
  List.iteri (fun i (name, _) -> Hashtbl.replace gindex name i) b.Mach.globals;
  let entry_idx = Ir.Guid.Tbl.create 64 in
  let func_by_guid = Ir.Guid.Tbl.create 64 in
  Array.iteri
    (fun i (f : Mach.bfunc) ->
      Ir.Guid.Tbl.replace func_by_guid f.Mach.bf_guid i;
      match Hashtbl.find_opt b.Mach.addr_index f.Mach.bf_start with
      | Some idx -> Ir.Guid.Tbl.replace entry_idx f.Mach.bf_guid idx
      | None -> ())
    b.Mach.funcs;
  let idx_of_addr addr =
    match Hashtbl.find_opt b.Mach.addr_index addr with
    | Some i -> i
    | None -> raise (Trap (Printf.sprintf "jump to unmapped address 0x%x" addr))
  in
  (* Register and slot indices are checked here, so the interpreter can
     index the register file without bounds checks. *)
  let reg r = if r < 0 || r >= n_phys then raise (Trap (Printf.sprintf "bad register r%d" r)) else r in
  let slot s = if s < 0 then raise (Trap (Printf.sprintf "bad spill slot %d" s)) else n_phys + s in
  let loc = function Mach.LReg p -> reg p | Mach.LSpill s -> slot s in
  let consts = ref [] and n_consts = ref 0 in
  let operand = function
    | Mach.OReg r -> reg r
    | Mach.OSpill s -> slot s
    | Mach.OImm v ->
        consts := v :: !consts;
        incr n_consts;
        lnot (!n_consts - 1)
  in
  let max_args = ref 0 in
  let decode_call (c : Mach.mcall) =
    let fi =
      match Ir.Guid.Tbl.find_opt func_by_guid c.Mach.m_callee with
      | Some i -> i
      | None -> raise (Trap ("call to unknown function " ^ c.Mach.m_callee_name))
    in
    let entry =
      match Ir.Guid.Tbl.find_opt entry_idx c.Mach.m_callee with
      | Some i -> i
      | None -> raise (Trap ("function with no code: " ^ c.Mach.m_callee_name))
    in
    let args = Array.of_list (List.map operand c.Mach.m_args) in
    max_args := max !max_args (Array.length args);
    {
      d_func = fi;
      d_entry = entry;
      d_args = args;
      d_ret = (match c.Mach.m_ret with Some l -> loc l | None -> -1);
      d_spill_args = Array.fold_left (fun n o -> if is_spill o then n + 1 else n) 0 args;
    }
  in
  let dops =
    Array.map
      (fun (inst : Mach.inst) ->
        match inst.Mach.i_op with
        | Mach.MArith (op, d, a, b') ->
            (* Division by a compile-time constant is strength-reduced
               (multiply/shift sequence), far cheaper than a full divide. *)
            let cost =
              match (op, b') with
              | (T.Div | T.Rem), Mach.OImm _ -> 4
              | (T.Div | T.Rem), _ -> 20
              | T.Mul, _ -> 3
              | _ -> 1
            in
            DArith (op, cost, reg d, operand a, operand b')
        | Mach.MCmp (op, d, a, b') -> DCmp (op, reg d, operand a, operand b')
        | Mach.MSelect (d, c, a, b') -> DSelect (reg d, reg c, operand a, operand b')
        | Mach.MMov (d, a) -> DMov (reg d, operand a)
        | Mach.MLoad (d, g, i) -> DLoad (reg d, Hashtbl.find gindex g, operand i)
        | Mach.MStore (g, i, v) -> DStore (Hashtbl.find gindex g, operand i, operand v)
        | Mach.MSpill_ld (d, s) -> DSpill_ld (reg d, slot s)
        | Mach.MSpill_st (s, r) -> DSpill_st (slot s, reg r)
        | Mach.MCall c -> DCall (decode_call c)
        | Mach.MTail_call c -> DTail_call (decode_call c)
        | Mach.MRet o -> DRet (operand o)
        | Mach.MJmp a -> DJmp (idx_of_addr a)
        | Mach.MJcc (c, pol, a) -> DJcc (reg c, pol, idx_of_addr a)
        | Mach.MSwitch (o, cases, d) ->
            let keys = words (List.length cases) in
            List.iteri (fun k (v, _) -> keys.{k} <- v) cases;
            let tgts = Array.of_list (List.map (fun (_, a) -> idx_of_addr a) cases) in
            DSwitch (operand o, keys, tgts, idx_of_addr d)
        | Mach.MInc c -> DInc c
        | Mach.MValprof (s, o) -> DValprof (s, operand o)
        | Mach.MNop -> DNop)
      b.Mach.insts
  in
  let pool = words !n_consts in
  List.iteri (fun k v -> pool.{!n_consts - 1 - k} <- v) !consts;
  {
    dops;
    consts = pool;
    entry_idx;
    frame_words = Array.map (fun (f : Mach.bfunc) -> n_phys + max f.Mach.bf_nslots 1) b.Mach.funcs;
    param_offs =
      Array.map (fun (f : Mach.bfunc) -> Array.map loc f.Mach.bf_param_locs) b.Mach.funcs;
    max_args = !max_args;
  }

(* ------------------------------------------------------------------ *)
(* Interpreter state. Every counter is an immediate int, so bumping one
   never allocates. The register file is one flat off-heap int64 array:
   frame [d] owns [fr_words.(d)] words from [fr_base.(d)] (registers
   first, then spill slots), and frames are contiguous, the callee just
   above its caller. *)

type state = {
  mutable cycles : int;
  mutable instructions : int;
  mutable icache_misses : int;
  mutable taken_branches : int;
  mutable mispredicts : int;
  mutable next_sample : int;
  fuel : int;
  mutable regs : words;
  mutable depth : int;              (* index of the current frame *)
  mutable fr_base : int array;
  mutable fr_words : int array;
  mutable fr_ret_pc : int array;    (* instruction index to resume at; -1 = entry *)
  mutable fr_ret_dst : int array;   (* offset in the caller's frame; -1 = none *)
  lbr_src : int array;              (* LBR ring of instruction addresses *)
  lbr_tgt : int array;
  mutable lbr_pos : int;
  mutable lbr_len : int;
  mutable last_kind : [ `Call | `Ret | `Other ];  (* for skid simulation *)
}

let icache_lines = 512 (* 512 * 64B = 32 KiB, direct-mapped *)

let initial_frames = 64

let grow a n =
  let a' = Array.make n 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Push an empty frame above the current one; {!reset_frame} sizes it. *)
let push_frame st ~ret_pc ~ret_dst =
  let base = st.fr_base.(st.depth) + st.fr_words.(st.depth) in
  let d = st.depth + 1 in
  if d >= Array.length st.fr_base then begin
    let n = 2 * Array.length st.fr_base in
    st.fr_base <- grow st.fr_base n;
    st.fr_words <- grow st.fr_words n;
    st.fr_ret_pc <- grow st.fr_ret_pc n;
    st.fr_ret_dst <- grow st.fr_ret_dst n
  end;
  st.depth <- d;
  st.fr_base.(d) <- base;
  st.fr_ret_pc.(d) <- ret_pc;
  st.fr_ret_dst.(d) <- ret_dst

(* Size the current frame to [nwords] zeroed words, growing the register
   file by doubling when it does not fit. *)
let reset_frame st nwords =
  let base = st.fr_base.(st.depth) in
  let cap = A1.dim st.regs in
  if base + nwords > cap then begin
    let regs = words (max (base + nwords) (2 * cap)) in
    A1.blit st.regs (A1.sub regs 0 cap);
    st.regs <- regs
  end;
  st.fr_words.(st.depth) <- nwords;
  let regs = st.regs in
  for k = base to base + nwords - 1 do
    A1.unsafe_set regs k 0L
  done

(* Operand read in the frame at [base] of [nwords] words: slots past the
   frame's end read as 0. *)
let[@inline] read (regs : words) (consts : words) base nwords o =
  if o >= 0 then if o < nwords then A1.unsafe_get regs (base + o) else 0L
  else A1.unsafe_get consts (lnot o)

(* [T.eval_binop] and [T.eval_cmpop], restated where the loop can inline
   them: a call into another module returns a boxed int64. *)
let[@inline] binop op (x : int64) (y : int64) =
  match op with
  | T.Add -> Int64.add x y
  | T.Sub -> Int64.sub x y
  | T.Mul -> Int64.mul x y
  | T.Div -> if y = 0L then 0L else Int64.div x y
  | T.Rem -> if y = 0L then 0L else Int64.rem x y
  | T.And -> Int64.logand x y
  | T.Or -> Int64.logor x y
  | T.Xor -> Int64.logxor x y
  | T.Shl -> Int64.shift_left x (Int64.to_int y land 63)
  | T.Shr -> Int64.shift_right_logical x (Int64.to_int y land 63)

let[@inline] cmpop op (x : int64) (y : int64) =
  let r =
    match op with
    | T.Eq -> x = y
    | T.Ne -> x <> y
    | T.Lt -> x < y
    | T.Le -> x <= y
    | T.Gt -> x > y
    | T.Ge -> x >= y
  in
  if r then 1L else 0L

(* Touch every 64-byte line the instruction spans (addresses are
   non-negative, so shifts and masks stand in for division). *)
let[@inline] fetch st icache (inst : Mach.inst) =
  let addr = inst.Mach.i_addr in
  for line = addr lsr 6 to (addr + inst.Mach.i_size - 1) lsr 6 do
    let set = line land (icache_lines - 1) in
    if Array.unsafe_get icache set <> line then begin
      Array.unsafe_set icache set line;
      st.icache_misses <- st.icache_misses + 1;
      st.cycles <- st.cycles + 20
    end
  done

let record_branch st insts kind src_idx tgt_idx =
  st.taken_branches <- st.taken_branches + 1;
  let n = Array.length st.lbr_src in
  st.lbr_src.(st.lbr_pos) <- insts.(src_idx).Mach.i_addr;
  st.lbr_tgt.(st.lbr_pos) <-
    (if tgt_idx < Array.length insts then insts.(tgt_idx).Mach.i_addr else 0);
  st.lbr_pos <- (if st.lbr_pos + 1 = n then 0 else st.lbr_pos + 1);
  if st.lbr_len < n then st.lbr_len <- st.lbr_len + 1;
  st.last_kind <- kind

let run ?(pmu = Some default_pmu) ?(globals_init = []) ?(args = [])
    ?(fuel = 2_000_000_000L) ?sink ?labels ?(debug_poison = false) ?obs
    (b : Mach.binary) ~entry =
  let dec = decode b in
  let dops = dec.dops and consts = dec.consts in
  let insts = b.Mach.insts in
  let n_inst = Array.length insts in
  (* Globals. *)
  let garrays =
    Array.of_list
      (List.map
         (fun (name, size) ->
           let a = Array.make (max size 1) 0L in
           (match List.assoc_opt name globals_init with
           | Some init ->
               Array.blit init 0 a 0 (min (Array.length init) (Array.length a))
           | None -> ());
           a)
         b.Mach.globals)
  in
  let counters = Array.make (max b.Mach.n_counters 1) 0 in
  let value_profiles : (int, (int64, int64) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  (* Entry function. *)
  let entry_guid = Ir.Guid.of_name entry in
  let entry_fidx =
    let r = ref (-1) in
    Array.iteri
      (fun i (f : Mach.bfunc) -> if Ir.Guid.equal f.Mach.bf_guid entry_guid then r := i)
      b.Mach.funcs;
    if !r < 0 then raise (Trap ("no entry function " ^ entry));
    !r
  in
  let entry_ip =
    match Ir.Guid.Tbl.find_opt dec.entry_idx entry_guid with
    | Some i -> i
    | None -> raise (Trap ("entry function has no code: " ^ entry))
  in
  let lbr_depth = max 1 (match pmu with Some p -> p.lbr_depth | None -> 16) in
  let st =
    {
      cycles = 0;
      instructions = 0;
      icache_misses = 0;
      taken_branches = 0;
      mispredicts = 0;
      next_sample =
        (match pmu with Some p when p.sample_period > 0 -> p.sample_period | _ -> max_int);
      fuel = (if Int64.compare fuel (Int64.of_int max_int) > 0 then max_int else Int64.to_int fuel);
      regs = words (initial_frames * (n_phys + 8));
      depth = 0;
      fr_base = Array.make initial_frames 0;
      fr_words = Array.make initial_frames 0;
      fr_ret_pc = Array.make initial_frames (-1);
      fr_ret_dst = Array.make initial_frames (-1);
      lbr_src = Array.make lbr_depth 0;
      lbr_tgt = Array.make lbr_depth 0;
      lbr_pos = 0;
      lbr_len = 0;
      last_kind = `Other;
    }
  in
  reset_frame st dec.frame_words.(entry_fidx);
  (* Bind entry arguments. *)
  let params = dec.param_offs.(entry_fidx) in
  List.iteri
    (fun i v ->
      if i < Array.length params && params.(i) < st.fr_words.(0) then st.regs.{params.(i)} <- v)
    args;
  let arg_scratch = words dec.max_args in
  let ret_value = ref 0L in
  (* Streaming sample delivery: the ring and frame chain are flushed into
     reusable scratch buffers and handed to the sink. Nothing per-sample
     survives the callback unless the sink copies it. *)
  let lbr_scratch = Array.make (2 * lbr_depth) 0 in
  let stack_scratch = ref (Array.make 64 0) in
  let n_samples = ref 0 in
  let the_sink =
    match sink with
    | Some s -> s
    | None ->
        { on_sample = (fun ~lbr:_ ~lbr_len:_ ~stack:_ ~stack_len:_ -> ()); on_labels = no_labels }
  in
  (* The request's label set is announced through the sink once, before
     the first sample: every sample this run flushes carries it. *)
  (match labels with Some ls -> the_sink.on_labels ls | None -> ());
  let rng = Rng.create (match pmu with Some p -> p.seed | None -> 1L) in
  let icache = Array.make icache_lines (-1) in
  let predictor = Array.make (max n_inst 1) 1 in
  let ensure_stack_scratch cap =
    if cap > Array.length !stack_scratch then begin
      let a = Array.make (max cap (2 * Array.length !stack_scratch)) 0 in
      Array.blit !stack_scratch 0 a 0 (Array.length !stack_scratch);
      stack_scratch := a
    end
  in
  (* Write the frame walk (leaf first) into the scratch; returns its length. *)
  let walk_stack cur_addr =
    ensure_stack_scratch (2 + st.depth);
    let sbuf = !stack_scratch in
    sbuf.(0) <- cur_addr;
    let n = ref 1 and d = ref st.depth in
    while !d >= 0 && st.fr_ret_pc.(!d) >= 0 do
      let ret_pc = st.fr_ret_pc.(!d) in
      sbuf.(!n) <- (if ret_pc < n_inst then insts.(ret_pc).Mach.i_addr else 0);
      incr n;
      decr d
    done;
    !n
  in
  let take_sample ip =
    incr n_samples;
    let cur_addr = if ip < n_inst then insts.(ip).Mach.i_addr else 0 in
    let stack_len = walk_stack cur_addr in
    let ring = Array.length st.lbr_src in
    let stack_len =
      match pmu with
      | Some p when (not p.pebs) && st.lbr_len > 0 && Rng.chance rng p.skid_prob ->
          (* Stack lags the LBR by one control transfer: the skidded walk is
             [src] prepended to the walk with the newest k frames dropped
             (k = 2 after a call, 0 after a return, 1 otherwise), computed
             in place on the scratch. *)
          let src = st.lbr_src.((st.lbr_pos - 1 + ring) mod ring) in
          ensure_stack_scratch (stack_len + 1);
          let sbuf = !stack_scratch in
          let k = match st.last_kind with `Call -> 2 | `Ret -> 0 | `Other -> 1 in
          let kept = max 0 (stack_len - k) in
          if k = 0 then
            for i = stack_len - 1 downto 0 do
              sbuf.(i + 1) <- sbuf.(i)
            done
          else if k >= 2 then
            for i = 0 to kept - 1 do
              sbuf.(i + 1) <- sbuf.(k + i)
            done;
          (* k = 1: [src] replaces the leaf in place. *)
          sbuf.(0) <- src;
          kept + 1
      | _ -> stack_len
    in
    (* Flush the LBR ring oldest-first into the scratch. *)
    let n = st.lbr_len in
    for i = 0 to n - 1 do
      let pos = (st.lbr_pos - n + i + ring) mod ring in
      lbr_scratch.(2 * i) <- st.lbr_src.(pos);
      lbr_scratch.((2 * i) + 1) <- st.lbr_tgt.(pos)
    done;
    the_sink.on_sample ~lbr:lbr_scratch ~lbr_len:n ~stack:!stack_scratch ~stack_len;
    if debug_poison then begin
      (* Catch sinks that alias the scratch instead of copying. *)
      Array.fill lbr_scratch 0 (Array.length lbr_scratch) min_int;
      Array.fill !stack_scratch 0 (Array.length !stack_scratch) min_int
    end;
    match pmu with
    | Some p when p.sample_period > 0 -> st.next_sample <- st.next_sample + p.sample_period
    | _ -> st.next_sample <- max_int
  in
  (* Bind a call's arguments, already in [arg_scratch], to the fresh
     current frame's parameters. *)
  let bind_args (c : dcall) =
    let params = dec.param_offs.(c.d_func) in
    let base = st.fr_base.(st.depth) and nwords = st.fr_words.(st.depth) in
    for k = 0 to min (Array.length c.d_args) (Array.length params) - 1 do
      let p = params.(k) in
      if p < nwords then A1.unsafe_set st.regs (base + p) (A1.unsafe_get arg_scratch k)
    done
  in
  let load_args (c : dcall) base nwords =
    let regs = st.regs in
    for k = 0 to Array.length c.d_args - 1 do
      A1.unsafe_set arg_scratch k (read regs consts base nwords c.d_args.(k))
    done
  in
  let ip = ref entry_ip in
  let base = ref 0 and nwords = ref st.fr_words.(0) in
  let running = ref true in
  while !running do
    if st.instructions >= st.fuel then raise (Trap "fuel exhausted");
    let i = !ip in
    if i < 0 || i >= n_inst then raise (Trap (Printf.sprintf "ip out of text: %d" i));
    fetch st icache (Array.unsafe_get insts i);
    st.instructions <- st.instructions + 1;
    let regs = st.regs and fb = !base and fw = !nwords in
    let next = ref (i + 1) in
    (match Array.unsafe_get dops i with
    | DArith (op, cost, d, a, b') ->
        st.cycles <- st.cycles + cost;
        A1.unsafe_set regs (fb + d)
          (binop op (read regs consts fb fw a) (read regs consts fb fw b'))
    | DCmp (op, d, a, b') ->
        st.cycles <- st.cycles + 1;
        A1.unsafe_set regs (fb + d)
          (cmpop op (read regs consts fb fw a) (read regs consts fb fw b'))
    | DSelect (d, c, a, b') ->
        st.cycles <- st.cycles + 1;
        A1.unsafe_set regs (fb + d)
          (if A1.unsafe_get regs (fb + c) = 0L then read regs consts fb fw b'
           else read regs consts fb fw a)
    | DMov (d, a) ->
        st.cycles <- st.cycles + 1;
        A1.unsafe_set regs (fb + d) (read regs consts fb fw a)
    | DLoad (d, g, idx) ->
        st.cycles <- st.cycles + 3;
        let arr = garrays.(g) in
        let n = Array.length arr in
        let k = Int64.to_int (read regs consts fb fw idx) in
        A1.unsafe_set regs (fb + d) arr.(((k mod n) + n) mod n)
    | DStore (g, idx, v) ->
        st.cycles <- st.cycles + 3;
        let arr = garrays.(g) in
        let n = Array.length arr in
        let k = Int64.to_int (read regs consts fb fw idx) in
        arr.(((k mod n) + n) mod n) <- read regs consts fb fw v
    | DSpill_ld (d, s) ->
        (* L1-resident, store-forwarded: effectively pipelined. *)
        st.cycles <- st.cycles + 1;
        A1.unsafe_set regs (fb + d) (read regs consts fb fw s)
    | DSpill_st (s, r) ->
        st.cycles <- st.cycles + 1;
        if s < fw then A1.unsafe_set regs (fb + s) (A1.unsafe_get regs (fb + r))
    | DCall c ->
        (* Call overhead models prologue/epilogue and frame setup. *)
        st.cycles <- st.cycles + 14 + c.d_spill_args;
        load_args c fb fw;
        push_frame st ~ret_pc:(i + 1) ~ret_dst:c.d_ret;
        reset_frame st dec.frame_words.(c.d_func);
        bind_args c;
        base := st.fr_base.(st.depth);
        nwords := st.fr_words.(st.depth);
        record_branch st insts `Call i c.d_entry;
        next := c.d_entry
    | DTail_call c ->
        st.cycles <- st.cycles + 10 + c.d_spill_args;
        (* The caller frame is replaced: it will never appear in stack
           walks again (TCE missing-frame behaviour). *)
        load_args c fb fw;
        reset_frame st dec.frame_words.(c.d_func);
        bind_args c;
        nwords := st.fr_words.(st.depth);
        record_branch st insts `Call i c.d_entry;
        next := c.d_entry
    | DRet o ->
        st.cycles <- st.cycles + 5 + (if is_spill o then 1 else 0);
        let v = read regs consts fb fw o in
        let ret_pc = st.fr_ret_pc.(st.depth) and dst = st.fr_ret_dst.(st.depth) in
        st.depth <- st.depth - 1;
        if st.depth < 0 then begin
          ret_value := v;
          running := false;
          record_branch st insts `Ret i i
        end
        else begin
          base := st.fr_base.(st.depth);
          nwords := st.fr_words.(st.depth);
          if dst >= 0 && dst < !nwords then A1.unsafe_set regs (!base + dst) v;
          record_branch st insts `Ret i ret_pc;
          next := ret_pc
        end
    | DJmp t ->
        st.cycles <- st.cycles + 3;
        record_branch st insts `Other i t;
        next := t
    | DJcc (c, pol, t) ->
        let taken = A1.unsafe_get regs (fb + c) <> 0L = pol in
        (* Per-branch 2-bit saturating predictor: biased branches predict
           near-perfectly after warmup; data-dependent alternating branches
           pay the 12-cycle flush. *)
        let p = Array.unsafe_get predictor i in
        if taken <> (p >= 2) then begin
          st.mispredicts <- st.mispredicts + 1;
          st.cycles <- st.cycles + 12
        end;
        Array.unsafe_set predictor i (if taken then min 3 (p + 1) else max 0 (p - 1));
        if taken then begin
          st.cycles <- st.cycles + 3;
          record_branch st insts `Other i t;
          next := t
        end
        else st.cycles <- st.cycles + 1
    | DSwitch (o, keys, tgts, d) ->
        st.cycles <- st.cycles + 5 + (if is_spill o then 3 else 0);
        let v = read regs consts fb fw o in
        (* The first matching key wins, as in the case list. *)
        let t = ref d and k = ref 0 in
        while !k < Array.length tgts do
          if A1.unsafe_get keys !k = v then begin
            t := tgts.(!k);
            k := Array.length tgts
          end
          else incr k
        done;
        record_branch st insts `Other i !t;
        next := !t
    | DInc c ->
        st.cycles <- st.cycles + 5;
        counters.(c) <- counters.(c) + 1
    | DValprof (site, o) ->
        st.cycles <- st.cycles + 5;
        let v = read regs consts fb fw o in
        let tbl =
          match Hashtbl.find_opt value_profiles site with
          | Some tbl -> tbl
          | None ->
              let tbl = Hashtbl.create 8 in
              Hashtbl.replace value_profiles site tbl;
              tbl
        in
        Hashtbl.replace tbl v
          (Int64.add 1L (Option.value (Hashtbl.find_opt tbl v) ~default:0L))
    | DNop -> st.cycles <- st.cycles + 1);
    ip := !next;
    (* Sampling: fire when the cycle counter crosses the period. *)
    if !running && st.cycles >= st.next_sample then take_sample !ip
  done;
  (* Telemetry fires once per run, off the interpreter loop. The rate
     histogram uses virtual cycles (samples per Mcycle), so it is as
     deterministic as the run itself. *)
  (match obs with
  | Some m when Csspgo_obs.Metrics.enabled m ->
      let module M = Csspgo_obs.Metrics in
      M.incr (M.counter m "vm.runs");
      M.bump (M.counter m "vm.samples-flushed") !n_samples;
      M.bump (M.counter m "vm.instructions") st.instructions;
      M.bump (M.counter m "vm.cycles") st.cycles;
      if !n_samples > 0 && st.cycles > 0 then
        M.observe (M.histogram m "vm.samples-per-mcycle") (!n_samples * 1_000_000 / st.cycles)
  | _ -> ());
  {
    cycles = Int64.of_int st.cycles;
    instructions = Int64.of_int st.instructions;
    ret_value = !ret_value;
    n_samples = !n_samples;
    counters = Array.map Int64.of_int counters;
    icache_misses = Int64.of_int st.icache_misses;
    taken_branches = Int64.of_int st.taken_branches;
    mispredicts = Int64.of_int st.mispredicts;
    value_profiles;
  }
