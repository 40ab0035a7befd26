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
(* Interpreter state. Every counter is an immediate int, so bumping one
   never allocates. The register file is one flat off-heap int64 array:
   frame [d] owns [fr_words.(d)] words from [fr_base.(d)] (registers
   first, then spill slots), and frames are contiguous, the callee just
   above its caller. [base] and [nwords] cache the current frame's. *)

module A1 = Bigarray.Array1

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

let words n : words = A1.create Bigarray.int64 Bigarray.c_layout (max n 1)

(* Globals are unboxed int64 words in a byte string, indexed by byte.
   They stay on the OCaml heap, which the GC paces its collections by:
   the same globals off-heap left the largest heap of a benchmark unit
   5% higher. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* A placeholder until decoding sizes the real array; never written. *)
let no_words = words 0

type state = {
  mutable cycles : int;
  mutable instructions : int;
  mutable icache_misses : int;
  mutable taken_branches : int;
  mutable mispredicts : int;
  mutable next_sample : int;
  fuel : int;
  mutable running : bool;
  mutable ret_value : int64;
  mutable regs : words;
  mutable consts : words;           (* the binary's immediates *)
  mutable base : int;
  mutable nwords : int;
  mutable depth : int;              (* index of the current frame *)
  mutable fr_base : int array;
  mutable fr_words : int array;
  mutable fr_ret_pc : int array;    (* instruction index to resume at; -1 = entry *)
  mutable fr_ret_dst : int array;   (* offset in the caller's frame; -1 = none *)
  addrs : int array;                (* per instruction index, then 0 past the text *)
  lbr_src : int array;              (* LBR ring of instruction addresses *)
  lbr_tgt : int array;
  mutable lbr_pos : int;
  mutable lbr_len : int;
  mutable last_kind : [ `Call | `Ret | `Other ];  (* for skid simulation *)
}

let icache_lines = 512 (* 512 * 64B = 32 KiB, direct-mapped *)

let initial_frames = 64

let n_phys = Mach.n_phys

let grow a n =
  let a' = Array.make n 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Push an empty frame above the current one; {!reset_frame} sizes it. *)
let push_frame st ~ret_pc ~ret_dst =
  let base = st.base + st.nwords in
  let d = st.depth + 1 in
  if d >= Array.length st.fr_base then begin
    let n = 2 * Array.length st.fr_base in
    st.fr_base <- grow st.fr_base n;
    st.fr_words <- grow st.fr_words n;
    st.fr_ret_pc <- grow st.fr_ret_pc n;
    st.fr_ret_dst <- grow st.fr_ret_dst n
  end;
  st.depth <- d;
  st.base <- base;
  st.fr_base.(d) <- base;
  st.fr_ret_pc.(d) <- ret_pc;
  st.fr_ret_dst.(d) <- ret_dst

(* Size the current frame to [nwords] zeroed words, growing the register
   file by doubling when it does not fit. *)
let reset_frame st nwords =
  let base = st.base in
  let cap = A1.dim st.regs in
  if base + nwords > cap then begin
    let regs = words (max (base + nwords) (2 * cap)) in
    A1.blit st.regs (A1.sub regs 0 cap);
    st.regs <- regs
  end;
  st.fr_words.(st.depth) <- nwords;
  st.nwords <- nwords;
  let regs = st.regs in
  for k = base to base + nwords - 1 do
    A1.unsafe_set regs k 0L
  done

(* ------------------------------------------------------------------ *)
(* Operands. Decoding checks register and slot indices, so a register
   read needs no bound: every frame holds at least [n_phys + 1] words. A
   spill slot past its frame's end reads 0 and drops writes. Immediates
   sit in an off-heap constant pool, so that every kind of read yields an
   unboxed int64. *)

type operand = Reg of int | Spill of int (* frame offset *) | Imm of int (* pool index *)

let[@inline] reg st r = A1.unsafe_get st.regs (st.base + r)
let[@inline] set st o v = A1.unsafe_set st.regs (st.base + o) v

(* An operand of the frame at [base] of [nwords] words. *)
let[@inline] read_at st base nwords = function
  | Reg r -> A1.unsafe_get st.regs (base + r)
  | Spill o -> if o < nwords then A1.unsafe_get st.regs (base + o) else 0L
  | Imm k -> A1.unsafe_get st.consts k

let[@inline] read st o = read_at st st.base st.nwords o

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

(* Record a taken branch from instruction [src] to [tgt] in the LBR. *)
let[@inline] branch st kind src tgt =
  st.taken_branches <- st.taken_branches + 1;
  let pos = st.lbr_pos and n = Array.length st.lbr_src in
  Array.unsafe_set st.lbr_src pos (Array.unsafe_get st.addrs src);
  Array.unsafe_set st.lbr_tgt pos (Array.unsafe_get st.addrs tgt);
  st.lbr_pos <- (if pos + 1 = n then 0 else pos + 1);
  if st.lbr_len < n then st.lbr_len <- st.lbr_len + 1;
  st.last_kind <- kind

(* ------------------------------------------------------------------ *)
(* Decoding. Names and guids resolve to dense indices and addresses to
   instruction indices, and each instruction becomes one closure over the
   run's state that performs the op and returns the next instruction
   index, specialised on its operands' kinds where that is common. Its
   static cycle cost is charged by the caller; only a conditional branch
   adds cycles of its own (2 when taken, 12 on a mispredict). *)

type call = {
  c_entry : int;       (* entry instruction index *)
  c_args : operand array;
  c_params : int array;  (* the callee's parameter offsets *)
  c_bind : int;        (* arguments bound: the fewer of arguments and parameters *)
  c_words : int;       (* the callee's frame size *)
  c_ret : int;         (* offset in the caller's frame; -1 = none *)
  c_cost : int;        (* call overhead plus 1 per spill-slot argument *)
}

type code = {
  ops : (unit -> int) array;
  cost : int array;            (* static cycles per instruction *)
  entry_idx : int Ir.Guid.Tbl.t;
  frame_words : int array;     (* per function: n_phys + max nslots 1 *)
  param_offs : int array array;
}

let decode st (b : Mach.binary) ~globals_init ~counters ~value_profiles =
  let insts = b.Mach.insts in
  let n_inst = Array.length insts in
  let globals =
    Array.of_list
      (List.map
         (fun (name, size) ->
           let a = Bytes.make (8 * max size 1) '\000' in
           (match List.assoc_opt name globals_init with
           | Some init ->
               for k = 0 to min (Array.length init) (Bytes.length a / 8) - 1 do
                 set64 a (8 * k) init.(k)
               done
           | None -> ());
           a)
         b.Mach.globals)
  in
  let gindex = Hashtbl.create 16 in
  List.iteri (fun i (name, _) -> Hashtbl.replace gindex name i) b.Mach.globals;
  let entry_idx = Ir.Guid.Tbl.create (Array.length b.Mach.funcs) in
  let func_by_guid = Ir.Guid.Tbl.create (Array.length b.Mach.funcs) in
  Array.iteri
    (fun i (f : Mach.bfunc) ->
      Ir.Guid.Tbl.replace func_by_guid f.Mach.bf_guid i;
      match Mach.idx_of_addr b f.Mach.bf_start with
      | -1 -> ()
      | idx -> Ir.Guid.Tbl.replace entry_idx f.Mach.bf_guid idx)
    b.Mach.funcs;
  let idx_of_addr addr =
    match Mach.idx_of_addr b addr with
    | -1 -> raise (Trap (Printf.sprintf "jump to unmapped address 0x%x" addr))
    | i -> i
  in
  let reg_idx r = if r < 0 || r >= n_phys then raise (Trap (Printf.sprintf "bad register r%d" r)) else r in
  let slot s = if s < 0 then raise (Trap (Printf.sprintf "bad spill slot %d" s)) else n_phys + s in
  let loc = function Mach.LReg p -> reg_idx p | Mach.LSpill s -> slot s in
  let consts = ref [] and n_consts = ref 0 in
  let operand = function
    | Mach.OReg r -> Reg (reg_idx r)
    | Mach.OSpill s -> Spill (slot s)
    | Mach.OImm v ->
        consts := v :: !consts;
        incr n_consts;
        Imm (!n_consts - 1)
  in
  let spills = function Spill _ -> 1 | Reg _ | Imm _ -> 0 in
  let frame_words = Array.map (fun (f : Mach.bfunc) -> n_phys + max f.Mach.bf_nslots 1) b.Mach.funcs in
  let param_offs = Array.map (fun (f : Mach.bfunc) -> Array.map loc f.Mach.bf_param_locs) b.Mach.funcs in
  let max_args = ref 0 in
  let decode_call (c : Mach.mcall) ~overhead =
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
    let params = param_offs.(fi) in
    {
      c_entry = entry;
      c_args = args;
      c_params = params;
      c_bind = min (Array.length args) (Array.length params);
      c_words = frame_words.(fi);
      c_ret = (match c.Mach.m_ret with Some l -> loc l | None -> -1);
      c_cost = overhead + Array.fold_left (fun n o -> n + spills o) 0 args;
    }
  in
  let cost = Array.make n_inst 1 in
  let ops = Array.make n_inst (fun () -> 0) in
  let predictor = Array.make (max n_inst 1) 1 in
  (* Filled once the widest call is known; only tail calls use it. *)
  let arg_scratch = ref no_words in
  let decode_op i (inst : Mach.inst) =
    let next = i + 1 in
    match inst.Mach.i_op with
    | Mach.MArith (op, d, a, b') -> (
        (* Division by a compile-time constant is strength-reduced
           (multiply/shift sequence), far cheaper than a full divide. *)
        cost.(i) <-
          (match (op, b') with
          | (T.Div | T.Rem), Mach.OImm _ -> 4
          | (T.Div | T.Rem), _ -> 20
          | T.Mul, _ -> 3
          | _ -> 1);
        let d = reg_idx d in
        match (operand a, operand b') with
        | Reg x, Reg y -> fun () -> set st d (binop op (reg st x) (reg st y)); next
        | Reg x, Imm k -> fun () -> set st d (binop op (reg st x) (A1.unsafe_get st.consts k)); next
        | a, b' -> fun () -> set st d (binop op (read st a) (read st b')); next)
    | Mach.MCmp (op, d, a, b') -> (
        let d = reg_idx d in
        match (operand a, operand b') with
        | Reg x, Reg y -> fun () -> set st d (cmpop op (reg st x) (reg st y)); next
        | Reg x, Imm k -> fun () -> set st d (cmpop op (reg st x) (A1.unsafe_get st.consts k)); next
        | a, b' -> fun () -> set st d (cmpop op (read st a) (read st b')); next)
    | Mach.MSelect (d, c, a, b') ->
        let d = reg_idx d and c = reg_idx c and a = operand a and b' = operand b' in
        fun () ->
          set st d (if reg st c = 0L then read st b' else read st a);
          next
    | Mach.MMov (d, a) -> (
        let d = reg_idx d in
        match operand a with
        | Reg x -> fun () -> set st d (reg st x); next
        | Imm k -> fun () -> set st d (A1.unsafe_get st.consts k); next
        | a -> fun () -> set st d (read st a); next)
    | Mach.MSpill_ld (d, s) ->
        (* L1-resident, store-forwarded: effectively pipelined. *)
        let d = reg_idx d and s = slot s in
        fun () ->
          set st d (if s < st.nwords then reg st s else 0L);
          next
    | Mach.MSpill_st (s, r) ->
        let s = slot s and r = reg_idx r in
        fun () ->
          if s < st.nwords then set st s (reg st r);
          next
    | Mach.MLoad (d, g, ix) ->
        cost.(i) <- 3;
        let d = reg_idx d and arr = globals.(Hashtbl.find gindex g) and ix = operand ix in
        let n = Bytes.length arr / 8 in
        fun () ->
          let k = Int64.to_int (read st ix) in
          set st d (get64 arr (8 * (((k mod n) + n) mod n)));
          next
    | Mach.MStore (g, ix, v) ->
        cost.(i) <- 3;
        let arr = globals.(Hashtbl.find gindex g) and ix = operand ix and v = operand v in
        let n = Bytes.length arr / 8 in
        fun () ->
          let k = Int64.to_int (read st ix) in
          set64 arr (8 * (((k mod n) + n) mod n)) (read st v);
          next
    | Mach.MCall c ->
        (* Call overhead models prologue/epilogue and frame setup. The
           callee's frame sits above the caller's, so the arguments are
           read straight into it. *)
        let c = decode_call c ~overhead:14 in
        cost.(i) <- c.c_cost;
        fun () ->
          let cb = st.base and cw = st.nwords in
          push_frame st ~ret_pc:next ~ret_dst:c.c_ret;
          reset_frame st c.c_words;
          for k = 0 to c.c_bind - 1 do
            let p = Array.unsafe_get c.c_params k in
            if p < st.nwords then set st p (read_at st cb cw (Array.unsafe_get c.c_args k))
          done;
          branch st `Call i c.c_entry;
          c.c_entry
    | Mach.MTail_call c ->
        (* The caller frame is replaced: it will never appear in stack
           walks again (TCE missing-frame behaviour). Its arguments go
           through a scratch, since the callee's frame overwrites it. *)
        let c = decode_call c ~overhead:10 in
        cost.(i) <- c.c_cost;
        fun () ->
          let scratch = !arg_scratch in
          for k = 0 to c.c_bind - 1 do
            A1.unsafe_set scratch k (read st (Array.unsafe_get c.c_args k))
          done;
          reset_frame st c.c_words;
          for k = 0 to c.c_bind - 1 do
            let p = Array.unsafe_get c.c_params k in
            if p < st.nwords then set st p (A1.unsafe_get scratch k)
          done;
          branch st `Call i c.c_entry;
          c.c_entry
    | Mach.MRet o ->
        let o = operand o in
        cost.(i) <- 5 + spills o;
        fun () ->
          let d = st.depth in
          let ret_pc = st.fr_ret_pc.(d) and dst = st.fr_ret_dst.(d) in
          st.depth <- d - 1;
          if d = 0 then begin
            (* The one boxed store of a run. *)
            st.ret_value <- read st o;
            st.running <- false;
            branch st `Ret i i;
            i
          end
          else begin
            let base = st.fr_base.(d - 1) and nwords = st.fr_words.(d - 1) in
            if dst >= 0 && dst < nwords then A1.unsafe_set st.regs (base + dst) (read st o);
            st.base <- base;
            st.nwords <- nwords;
            branch st `Ret i ret_pc;
            ret_pc
          end
    | Mach.MJmp a ->
        cost.(i) <- 3;
        let t = idx_of_addr a in
        fun () ->
          branch st `Other i t;
          t
    | Mach.MJcc (c, pol, a) ->
        (* Per-branch 2-bit saturating predictor: biased branches predict
           near-perfectly after warmup; data-dependent alternating branches
           pay the 12-cycle flush. *)
        let c = reg_idx c and t = idx_of_addr a in
        fun () ->
          let taken = reg st c <> 0L = pol in
          let p = Array.unsafe_get predictor i in
          if taken <> (p >= 2) then begin
            st.mispredicts <- st.mispredicts + 1;
            st.cycles <- st.cycles + 12
          end;
          if taken then begin
            Array.unsafe_set predictor i (if p < 3 then p + 1 else 3);
            st.cycles <- st.cycles + 2;
            branch st `Other i t;
            t
          end
          else begin
            Array.unsafe_set predictor i (if p > 0 then p - 1 else 0);
            next
          end
    | Mach.MSwitch (o, cases, d) ->
        let o = operand o in
        cost.(i) <- 5 + (3 * spills o);
        let keys = words (List.length cases) in
        List.iteri (fun k (v, _) -> keys.{k} <- v) cases;
        let tgts = Array.of_list (List.map (fun (_, a) -> idx_of_addr a) cases) in
        let d = idx_of_addr d in
        fun () ->
          let v = read st o in
          (* The first matching key wins, as in the case list. *)
          let t = ref d and k = ref 0 in
          while !k < Array.length tgts do
            if A1.unsafe_get keys !k = v then begin
              t := tgts.(!k);
              k := Array.length tgts
            end
            else incr k
          done;
          branch st `Other i !t;
          !t
    | Mach.MInc c ->
        cost.(i) <- 5;
        fun () ->
          counters.(c) <- counters.(c) + 1;
          next
    | Mach.MValprof (site, o) ->
        cost.(i) <- 5;
        let o = operand o in
        fun () ->
          let v = read st o in
          let tbl =
            match Hashtbl.find_opt value_profiles site with
            | Some tbl -> tbl
            | None ->
                let tbl = Hashtbl.create 8 in
                Hashtbl.replace value_profiles site tbl;
                tbl
          in
          Hashtbl.replace tbl v (Int64.add 1L (Option.value (Hashtbl.find_opt tbl v) ~default:0L));
          next
    | Mach.MNop -> fun () -> next
  in
  Array.iteri (fun i inst -> ops.(i) <- decode_op i inst) insts;
  arg_scratch := words !max_args;
  let pool = words !n_consts in
  List.iteri (fun k v -> pool.{!n_consts - 1 - k} <- v) !consts;
  st.consts <- pool;
  { ops; cost; entry_idx; frame_words; param_offs }

(* ------------------------------------------------------------------ *)
(* Straight-line runs. The run from instruction [i] reaches through the
   first control transfer, which it includes, while its instructions sit
   back to back in memory and span fewer lines than the i-cache holds:
   touching each of its lines once, in address order, then leaves the
   i-cache and the miss count as fetching one instruction at a time
   would. [worst] bounds what the run can cost: its static cycles, 14
   more per conditional branch and 20 per line. *)

type runs = {
  len : int array;     (* per instruction, then 0 past the text *)
  static : int array;
  worst : int array;
  lo : int array;      (* first and last line it touches; lo > hi for none *)
  hi : int array;
}

let runs (insts : Mach.inst array) cost =
  let n = Array.length insts in
  let len = Array.make (n + 1) 0 and static = Array.make n 0 and worst = Array.make n 0 in
  let lo = Array.make (n + 1) 0 and hi = Array.make (n + 1) (-1) in
  let lines lo hi = if hi < lo then 0 else hi - lo + 1 in
  for i = n - 1 downto 0 do
    let inst = insts.(i) in
    let a = inst.Mach.i_addr and s = inst.Mach.i_size in
    let l0 = a lsr 6 and l1 = (a + s - 1) lsr 6 in
    let control, extra =
      match inst.Mach.i_op with
      | Mach.MJcc _ -> (true, 14)
      | Mach.MJmp _ | Mach.MCall _ | Mach.MTail_call _ | Mach.MRet _ | Mach.MSwitch _ -> (true, 0)
      | _ -> (false, 0)
    in
    let j = i + 1 in
    let lo', hi' =
      if l1 < l0 then (lo.(j), hi.(j))
      else if hi.(j) < lo.(j) then (l0, l1)
      else (l0, hi.(j))
    in
    let joins =
      (not control) && j < n && len.(j) > 0
      && insts.(j).Mach.i_addr = a + s
      && (l1 < l0 || hi.(j) < lo.(j) || lo.(j) = l1 || lo.(j) = l1 + 1)
      && hi' - lo' < icache_lines
    in
    if joins then begin
      len.(i) <- 1 + len.(j);
      static.(i) <- cost.(i) + static.(j);
      (* Run [j]'s worst case, plus this instruction and the lines it adds. *)
      worst.(i) <- cost.(i) + worst.(j) + (20 * (lines lo' hi' - lines lo.(j) hi.(j)));
      lo.(i) <- lo';
      hi.(i) <- hi'
    end
    else begin
      len.(i) <- 1;
      static.(i) <- cost.(i);
      worst.(i) <- cost.(i) + extra + (20 * lines l0 l1);
      lo.(i) <- l0;
      hi.(i) <- l1
    end
  done;
  { len; static; worst; lo; hi }

(* Touch lines [lo, hi] of a direct-mapped i-cache, charging each miss. *)
let[@inline] touch st icache lo hi =
  for line = lo to hi do
    let set = line land (icache_lines - 1) in
    if Array.unsafe_get icache set <> line then begin
      Array.unsafe_set icache set line;
      st.icache_misses <- st.icache_misses + 1;
      st.cycles <- st.cycles + 20
    end
  done

let run ?(pmu = Some default_pmu) ?(globals_init = []) ?(args = [])
    ?(fuel = 2_000_000_000L) ?sink ?labels ?(debug_poison = false) ?obs
    (b : Mach.binary) ~entry =
  let insts = b.Mach.insts in
  let n_inst = Array.length insts in
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
      running = true;
      ret_value = 0L;
      regs = words (initial_frames * (n_phys + 8));
      consts = no_words;
      base = 0;
      nwords = 0;
      depth = 0;
      fr_base = Array.make initial_frames 0;
      fr_words = Array.make initial_frames 0;
      fr_ret_pc = Array.make initial_frames (-1);
      fr_ret_dst = Array.make initial_frames (-1);
      addrs = Array.init (n_inst + 1) (fun i -> if i < n_inst then insts.(i).Mach.i_addr else 0);
      lbr_src = Array.make lbr_depth 0;
      lbr_tgt = Array.make lbr_depth 0;
      lbr_pos = 0;
      lbr_len = 0;
      last_kind = `Other;
    }
  in
  let counters = Array.make (max b.Mach.n_counters 1) 0 in
  let value_profiles : (int, (int64, int64) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let code = decode st b ~globals_init ~counters ~value_profiles in
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
    match Ir.Guid.Tbl.find_opt code.entry_idx entry_guid with
    | Some i -> i
    | None -> raise (Trap ("entry function has no code: " ^ entry))
  in
  reset_frame st code.frame_words.(entry_fidx);
  (* Bind entry arguments. *)
  let params = code.param_offs.(entry_fidx) in
  List.iteri
    (fun i v -> if i < Array.length params && params.(i) < st.nwords then st.regs.{params.(i)} <- v)
    args;
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
      sbuf.(!n) <- st.addrs.(st.fr_ret_pc.(!d));
      incr n;
      decr d
    done;
    !n
  in
  let take_sample ip =
    incr n_samples;
    let stack_len = walk_stack st.addrs.(ip) in
    let ring = Array.length st.lbr_src in
    let stack_len =
      match pmu with
      | Some p when (not p.pebs) && st.lbr_len > 0 && Rng.chance rng p.skid_prob ->
          (* Stack lags the LBR by one control transfer: the skidded walk is
             [src] prepended to the walk with the newest k frames dropped
             (k = 2 after a call, 0 after a return, 1 otherwise), computed
             in place on the scratch. *)
          let src = st.lbr_src.(if st.lbr_pos = 0 then ring - 1 else st.lbr_pos - 1) in
          ensure_stack_scratch (stack_len + 1);
          let sbuf = !stack_scratch in
          let k = match st.last_kind with `Call -> 2 | `Ret -> 0 | `Other -> 1 in
          let kept = if stack_len > k then stack_len - k else 0 in
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
    (* Flush the LBR ring oldest-first into the scratch: the oldest entry
       up to the ring's end, then its start up to [lbr_pos]. *)
    let n = st.lbr_len in
    let first = if st.lbr_pos >= n then st.lbr_pos - n else st.lbr_pos - n + ring in
    let head = if first + n <= ring then n else ring - first in
    for i = 0 to head - 1 do
      lbr_scratch.(2 * i) <- st.lbr_src.(first + i);
      lbr_scratch.((2 * i) + 1) <- st.lbr_tgt.(first + i)
    done;
    for i = head to n - 1 do
      lbr_scratch.(2 * i) <- st.lbr_src.(i - head);
      lbr_scratch.((2 * i) + 1) <- st.lbr_tgt.(i - head)
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
  let ops = code.ops and cost = code.cost in
  let r = runs insts cost in
  let ip = ref entry_ip in
  while st.running do
    let i = !ip in
    let len = r.len.(i) in
    if len > 0 && st.instructions + len <= st.fuel
       && st.cycles + Array.unsafe_get r.worst i < st.next_sample
    then begin
      (* No sample, skid or fuel trap can fall inside the run: charge it
         once and run its ops. *)
      touch st icache (Array.unsafe_get r.lo i) (Array.unsafe_get r.hi i);
      st.instructions <- st.instructions + len;
      st.cycles <- st.cycles + Array.unsafe_get r.static i;
      let last = i + len - 1 in
      for k = i to last - 1 do
        ignore ((Array.unsafe_get ops k) ())
      done;
      ip := (Array.unsafe_get ops last) ()
    end
    else begin
      if st.instructions >= st.fuel then raise (Trap "fuel exhausted");
      if i < 0 || i >= n_inst then raise (Trap (Printf.sprintf "ip out of text: %d" i));
      let inst = Array.unsafe_get insts i in
      let a = inst.Mach.i_addr in
      touch st icache (a lsr 6) ((a + inst.Mach.i_size - 1) lsr 6);
      st.instructions <- st.instructions + 1;
      st.cycles <- st.cycles + Array.unsafe_get cost i;
      ip := (Array.unsafe_get ops i) ();
      (* Sampling: fire when the cycle counter crosses the period. *)
      if st.running && st.cycles >= st.next_sample then take_sample !ip
    end
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
    ret_value = st.ret_value;
    n_samples = !n_samples;
    counters = Array.map Int64.of_int counters;
    icache_misses = Int64.of_int st.icache_misses;
    taken_branches = Int64.of_int st.taken_branches;
    mispredicts = Int64.of_int st.mispredicts;
    value_profiles;
  }
