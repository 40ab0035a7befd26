open Csspgo_support
module Ir = Csspgo_ir
module T = Ir.Types
module I = Ir.Instr
module B = Ir.Block
module D = Ir.Dloc

type result = {
  block_map : (T.label * T.label) list;
  continuation : T.label;
}

(* Instruction count excluding pseudo-probes (they cost nothing). *)
let callee_size (f : Ir.Func.t) =
  Ir.Func.fold_blocks
    (fun acc b ->
      acc
      + Vec.fold_left
          (fun n (i : I.t) -> match i.I.op with I.Probe _ -> n | _ -> n + 1)
          0 b.B.instrs)
    0 f

let remap_operand off (o : T.operand) =
  match o with T.Reg r -> T.Reg (r + off) | T.Imm _ -> o

let remap_opcode off (op : I.opcode) : I.opcode =
  let ro = remap_operand off in
  match op with
  | I.Bin (o, d, a, b) -> I.Bin (o, d + off, ro a, ro b)
  | I.Cmp (o, d, a, b) -> I.Cmp (o, d + off, ro a, ro b)
  | I.Select (d, c, a, b) -> I.Select (d + off, c + off, ro a, ro b)
  | I.Mov (d, a) -> I.Mov (d + off, ro a)
  | I.Load (d, g, i) -> I.Load (d + off, g, ro i)
  | I.Store (g, i, v) -> I.Store (g, ro i, ro v)
  | I.Call c ->
      I.Call
        {
          c with
          I.c_ret = Option.map (fun r -> r + off) c.I.c_ret;
          c_args = List.map ro c.I.c_args;
        }
  | (I.Probe _ | I.Counter_inc _) as op -> op
  | I.Val_prof (site, r) -> I.Val_prof (site, r + off)

(* Compose the inline chain: the callsite frame is derived from the call
   instruction's own location, so chains nest correctly when an already
   inlined call is inlined again. *)
let extend_dloc ~(call_dloc : D.t) ~(caller : Ir.Func.t) ~(cs_probe : int) (d : D.t) : D.t =
  let frame =
    if D.is_none call_dloc then
      { D.cs_func = caller.Ir.Func.guid; cs_line = 0; cs_disc = 0; cs_probe }
    else
      {
        D.cs_func = call_dloc.D.origin;
        cs_line = call_dloc.D.line;
        cs_disc = call_dloc.D.disc;
        cs_probe;
      }
  in
  let d = if D.is_none d then { d with D.origin = d.D.origin } else d in
  { d with D.inlined_at = d.D.inlined_at @ (frame :: call_dloc.D.inlined_at) }

let inline_at p ~(caller : Ir.Func.t) ~block ~index =
  match Ir.Func.find_block caller block with
  | None -> None
  | Some b -> (
      if index >= Vec.length b.B.instrs then None
      else
        let call_instr = Vec.get b.B.instrs index in
        match call_instr.I.op with
        | I.Call { c_ret; c_callee; c_args; c_probe } -> (
            match Ir.Program.find_func p c_callee with
            | None -> None
            | Some callee when String.equal callee.Ir.Func.name caller.Ir.Func.name -> None
            | Some callee ->
                let off = caller.Ir.Func.nregs in
                caller.Ir.Func.nregs <- caller.Ir.Func.nregs + callee.Ir.Func.nregs;
                let call_dloc = call_instr.I.dloc in
                (* Split the call block: instructions after the call move to
                   the continuation, which inherits the terminator. *)
                let cont = Ir.Func.fresh_block caller in
                for i = index + 1 to Vec.length b.B.instrs - 1 do
                  Vec.push cont.B.instrs (Vec.get b.B.instrs i)
                done;
                cont.B.term <- b.B.term;
                cont.B.count <- b.B.count;
                cont.B.edge_counts <- Array.copy b.B.edge_counts;
                (* Trim the call block to [0, index). *)
                let kept = Vec.create () in
                Vec.iteri (fun i instr -> if i < index then Vec.push kept instr) b.B.instrs;
                Vec.clear b.B.instrs;
                Vec.iter (Vec.push b.B.instrs) kept;
                (* Bind parameters. *)
                List.iteri
                  (fun i param ->
                    let arg = try List.nth c_args i with _ -> T.Imm 0L in
                    Vec.push b.B.instrs (I.mk (I.Mov (param + off, arg)) call_dloc))
                  callee.Ir.Func.params;
                (* Clone callee blocks. *)
                let mapping = Hashtbl.create 16 in
                List.iter
                  (fun l -> Hashtbl.replace mapping l (Ir.Func.fresh_block caller).B.id)
                  (Ir.Func.labels callee);
                let scale num den v =
                  if Int64.equal den 0L then 0L
                  else Int64.div (Int64.mul v num) den
                in
                let callsite_count = b.B.count in
                let callee_entry = Ir.Func.entry_count callee in
                Ir.Func.iter_blocks
                  (fun cb ->
                    let nb = Ir.Func.block caller (Hashtbl.find mapping cb.B.id) in
                    Vec.iter
                      (fun (ci : I.t) ->
                        let op = remap_opcode off ci.I.op in
                        let dloc = extend_dloc ~call_dloc ~caller ~cs_probe:c_probe ci.I.dloc in
                        Vec.push nb.B.instrs (I.mk op dloc))
                      cb.B.instrs;
                    let term =
                      match cb.B.term with
                      | I.Ret v ->
                          (match c_ret with
                          | Some d ->
                              Vec.push nb.B.instrs
                                (I.mk (I.Mov (d, remap_operand off v))
                                   (extend_dloc ~call_dloc ~caller ~cs_probe:c_probe D.none))
                          | None -> ());
                          I.Jmp cont.B.id
                      | I.Jmp l -> I.Jmp (Hashtbl.find mapping l)
                      | I.Br (c, a, b') ->
                          I.Br (c + off, Hashtbl.find mapping a, Hashtbl.find mapping b')
                      | I.Switch (v, cases, d) ->
                          I.Switch
                            ( remap_operand off v,
                              List.map (fun (k, l) -> (k, Hashtbl.find mapping l)) cases,
                              Hashtbl.find mapping d )
                      | I.Unreachable -> I.Unreachable
                    in
                    B.set_term nb term;
                    (* Context-insensitive scaling: the §II.B inaccuracy. *)
                    if caller.Ir.Func.annotated && callee.Ir.Func.annotated then begin
                      nb.B.count <- scale callsite_count callee_entry cb.B.count;
                      Array.iteri
                        (fun i c ->
                          if i < Array.length nb.B.edge_counts then
                            nb.B.edge_counts.(i) <- scale callsite_count callee_entry c)
                        cb.B.edge_counts
                    end)
                  callee;
                (* Jump from the trimmed call block into the inlined entry. *)
                B.set_term b (I.Jmp (Hashtbl.find mapping callee.Ir.Func.entry));
                if Array.length b.B.edge_counts = 1 then b.B.edge_counts.(0) <- b.B.count;
                Some
                  {
                    block_map =
                      List.map (fun l -> (l, Hashtbl.find mapping l)) (Ir.Func.labels callee);
                    continuation = cont.B.id;
                  })
        | _ -> None)

type site = {
  s_block : T.label;
  s_callee : string;
  s_count : int64;
}

let find_sites (f : Ir.Func.t) =
  Ir.Func.fold_blocks
    (fun acc b ->
      let sites = ref [] in
      Vec.iter
        (fun (i : I.t) ->
          match i.I.op with
          | I.Call { c_callee; _ } ->
              sites := { s_block = b.B.id; s_callee = c_callee; s_count = b.B.count } :: !sites
          | _ -> ())
        b.B.instrs;
      acc @ List.rev !sites)
    [] f

(* Find the first call to [callee] in [block] and inline it. Re-scanning by
   index keeps us robust to earlier splits invalidating indices. *)
let inline_first_call p caller ~block ~callee =
  match Ir.Func.find_block caller block with
  | None -> None
  | Some b ->
      let idx = ref None in
      Vec.iteri
        (fun i (instr : I.t) ->
          if !idx = None then
            match instr.I.op with
            | I.Call { c_callee; _ } when String.equal c_callee callee -> idx := Some i
            | _ -> ())
        b.B.instrs;
      Option.bind !idx (fun index -> inline_at p ~caller ~block ~index)

let run ~(config : Config.t) (p : Ir.Program.t) =
  match config.Config.inline_mode with
  | Config.Inline_none -> false
  | mode ->
      let cg = Ir.Callgraph.build p in
      let changed = ref false in
      List.iter
        (fun caller_name ->
          let caller = Ir.Program.func p caller_name in
          let growth = ref 0 in
          (* Hard cap on merged-function size: register pressure (and hence
             spill traffic) grows with function size, so inlining into an
             already huge body is counterproductive. *)
          let caller_base_size = callee_size caller in
          (* Work list of candidate sites; inlining may expose new ones. *)
          let continue_ = ref true in
          while !continue_ do
            continue_ := false;
            let sites =
              List.stable_sort
                (fun a b -> Int64.compare b.s_count a.s_count)
                (find_sites caller)
            in
            let pick =
              List.find_map
                (fun s ->
                  match Ir.Program.find_func p s.s_callee with
                  | None -> None
                  | Some callee ->
                      if String.equal callee.Ir.Func.name caller_name then None
                      else if Ir.Callgraph.is_recursive cg s.s_callee then None
                      else
                        let size = callee_size callee in
                        let budget_ok = caller_base_size + !growth + size <= 400 in
                        let attractive =
                          match mode with
                          | Config.Inline_static -> size <= 25
                          | Config.Inline_profile ->
                              if caller.Ir.Func.annotated then
                                (* hot: generous; warm: like static -O2;
                                   provably cold: size-optimize. *)
                                if Int64.compare s.s_count Config.hot_count >= 0
                                then size <= 120
                                else if Int64.compare s.s_count 0L > 0 then size <= 25
                                else size <= 5
                              else size <= 25
                          | Config.Inline_none -> false
                        in
                        if budget_ok && attractive then Some (s, size) else None)
                sites
            in
            match pick with
            | Some (s, size) -> (
                match inline_first_call p caller ~block:s.s_block ~callee:s.s_callee with
                | Some _ ->
                    growth := !growth + size;
                    changed := true;
                    continue_ := true
                | None -> ())
            | None -> ()
          done)
        (Ir.Callgraph.bottom_up cg);
      !changed

let drop_dead_functions (p : Ir.Program.t) =
  let cg = Ir.Callgraph.build p in
  let reachable = Hashtbl.create 64 in
  let rec mark name =
    if not (Hashtbl.mem reachable name) then begin
      Hashtbl.replace reachable name ();
      List.iter mark (Ir.Callgraph.callees cg name)
    end
  in
  if Ir.Program.find_func p p.Ir.Program.main <> None then mark p.Ir.Program.main;
  let dead =
    List.filter (fun n -> not (Hashtbl.mem reachable n)) (Ir.Program.func_names p)
  in
  List.iter (fun n -> Hashtbl.remove p.Ir.Program.funcs n) dead;
  dead
