module Mach = Csspgo_codegen.Mach
module Ir = Csspgo_ir

type kind = K_call | K_tail_call | K_ret | K_other

type t = {
  bx_bin : Mach.binary;
  base : int;
  idx_of : int array; (* addr - base -> instruction index; -1 unmapped *)
  kinds : kind array;
  func_guids : Ir.Guid.t array;
  call_before : int array; (* idx -> index of preceding MCall, or -1 *)
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
  let insts = b.Mach.insts in
  let n = Array.length insts in
  let base = if n = 0 then 0 else insts.(0).Mach.i_addr in
  let span = if n = 0 then 0 else insts.(n - 1).Mach.i_addr - base + 1 in
  let idx_of = Array.make span (-1) in
  let kinds = Array.make (max n 1) K_other in
  let dummy_guid = Ir.Guid.of_name "" in
  let func_guids = Array.make (max n 1) dummy_guid in
  let call_before = Array.make (max n 1) (-1) in
  let level_paths = Array.make (max n 1) [] in
  let callees = Array.make (max n 1) None in
  for i = 0 to n - 1 do
    let inst = insts.(i) in
    idx_of.(inst.Mach.i_addr - base) <- i;
    func_guids.(i) <- b.Mach.funcs.(inst.Mach.i_func).Mach.bf_guid;
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
    | _ -> ());
    if i > 0 && kinds.(i - 1) = K_call then call_before.(i) <- i - 1
  done;
  { bx_bin = b; base; idx_of; kinds; func_guids; call_before; level_paths; callees }

let binary t = t.bx_bin

let idx_of_addr t addr =
  let off = addr - t.base in
  if off < 0 || off >= Array.length t.idx_of then -1 else Array.unsafe_get t.idx_of off

let inst t i = t.bx_bin.Mach.insts.(i)

let kind_of_addr t addr =
  let i = idx_of_addr t addr in
  if i < 0 then K_other else t.kinds.(i)

let func_guid_of_addr t addr =
  let i = idx_of_addr t addr in
  if i >= 0 then Some t.func_guids.(i)
  else
    Option.map
      (fun fi -> t.bx_bin.Mach.funcs.(fi).Mach.bf_guid)
      (Mach.func_index_of_addr t.bx_bin addr)

let call_idx_before t ret_addr =
  let i = idx_of_addr t ret_addr in
  if i < 0 then -1 else t.call_before.(i)

let container t i = t.func_guids.(i)
let level_path t i = t.level_paths.(i)
let callee t i = t.callees.(i)
let cs_probe t i = t.bx_bin.Mach.insts.(i).Mach.i_cs_probe

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
