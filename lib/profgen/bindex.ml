module Mach = Csspgo_codegen.Mach
module Ir = Csspgo_ir

type kind = K_call | K_tail_call | K_ret | K_other

type t = {
  bx_bin : Mach.binary;
  base : int;
  idx_of : int array; (* addr - base -> instruction index; -1 unmapped *)
  func_of : int array; (* addr - base -> index into funcs; -1 outside every range *)
  kinds : kind array;
  probe_lo : int array; (* idx -> first probe anchored at or past it; n + 1 entries *)
  level_paths : (Ir.Guid.t * int) list array;
  callees : Ir.Guid.t option array;
}

let level_path_of (b : Mach.binary) (call_inst : Mach.inst) =
  let container = b.Mach.funcs.(call_inst.Mach.i_func).Mach.bf_guid in
  match Ir.Dloc.frames ~container call_inst.Mach.i_dloc with
  | [] -> [ (container, call_inst.Mach.i_cs_probe) ]
  | (origin, _, _) :: rest ->
      let outer = List.rev_map (fun (f, _, probe) -> (f, probe)) rest in
      outer @ [ (origin, call_inst.Mach.i_cs_probe) ]

let create (b : Mach.binary) =
  let insts = b.Mach.insts and probes = b.Mach.probes in
  let n = Array.length insts and np = Array.length probes in
  let base = if n = 0 then 0 else insts.(0).Mach.i_addr in
  let span = if n = 0 then 0 else b.Mach.text_size in
  let idx_of = Array.make span (-1) and func_of = Array.make span (-1) in
  let fill fi (s, e) = Array.fill func_of (s - base) (e - s) fi in
  Array.iteri
    (fun fi (f : Mach.bfunc) ->
      fill fi (f.Mach.bf_start, f.Mach.bf_end);
      Option.iter (fill fi) f.Mach.bf_cold)
    b.Mach.funcs;
  let kinds = Array.make (max n 1) K_other in
  let probe_lo = Array.make (n + 1) np in
  let level_paths = Array.make (max n 1) [] in
  let callees = Array.make (max n 1) None in
  let p = ref 0 in
  for i = 0 to n - 1 do
    let inst = insts.(i) in
    idx_of.(inst.Mach.i_addr - base) <- i;
    while !p < np && probes.(!p).Mach.pr_addr < inst.Mach.i_addr do
      incr p
    done;
    probe_lo.(i) <- !p;
    (match inst.Mach.i_op with
    | Mach.MCall c ->
        kinds.(i) <- K_call;
        level_paths.(i) <- level_path_of b inst;
        callees.(i) <- Some c.Mach.m_callee
    | Mach.MTail_call c ->
        kinds.(i) <- K_tail_call;
        level_paths.(i) <- level_path_of b inst;
        callees.(i) <- Some c.Mach.m_callee
    | Mach.MRet _ -> kinds.(i) <- K_ret
    | _ -> ())
  done;
  { bx_bin = b; base; idx_of; func_of; kinds; probe_lo; level_paths; callees }

let binary t = t.bx_bin

(* A per-byte table's entry at an address; -1 outside the text. *)
let at table t addr =
  let off = addr - t.base in
  if off < 0 || off >= Array.length table then -1 else Array.unsafe_get table off

let idx_of_addr t addr = at t.idx_of t addr

let inst t i = t.bx_bin.Mach.insts.(i)

let kind_of_addr t addr =
  let i = idx_of_addr t addr in
  if i < 0 then K_other else t.kinds.(i)

let func_guid_of_addr t addr =
  match at t.func_of t addr with -1 -> None | fi -> Some t.bx_bin.Mach.funcs.(fi).Mach.bf_guid

let entry_func t addr =
  let i = idx_of_addr t addr in
  let fi = if i < 0 then -1 else (inst t i).Mach.i_func in
  if fi >= 0 && t.bx_bin.Mach.funcs.(fi).Mach.bf_start = addr then fi else -1

let call_idx_before t ret_addr =
  let i = idx_of_addr t ret_addr in
  if i > 0 && t.kinds.(i - 1) = K_call then i - 1 else -1

let container t i = t.bx_bin.Mach.funcs.((inst t i).Mach.i_func).Mach.bf_guid
let level_path t i = t.level_paths.(i)
let callee t i = t.callees.(i)
let cs_probe t i = (inst t i).Mach.i_cs_probe

let iter_range t (lo, hi) f =
  let i0 = idx_of_addr t lo in
  if i0 >= 0 then begin
    let insts = t.bx_bin.Mach.insts in
    let n = Array.length insts in
    let i = ref i0 in
    (* A corrupt log's range can span the whole text: cap the walk. *)
    while !i < n && !i - i0 <= 100_000 && insts.(!i).Mach.i_addr <= hi do
      f !i;
      incr i
    done
  end

let iter_probes t range f =
  let probes = t.bx_bin.Mach.probes in
  iter_range t range (fun i ->
      for j = t.probe_lo.(i) to t.probe_lo.(i + 1) - 1 do
        f probes.(j)
      done)
