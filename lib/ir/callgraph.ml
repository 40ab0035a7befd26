open Csspgo_support

type t = {
  callee_map : (string, string list) Hashtbl.t;
  order : string list;  (** bottom-up *)
  recursive : (string, unit) Hashtbl.t;
}

let direct_callees f =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  Func.iter_blocks
    (fun b ->
      Vec.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Call { c_callee; _ } ->
              if not (Hashtbl.mem seen c_callee) then begin
                Hashtbl.replace seen c_callee ();
                out := c_callee :: !out
              end
          | _ -> ())
        b.Block.instrs)
    f;
  List.rev !out

let build p =
  let callee_map = Hashtbl.create 64 in
  Program.iter_funcs
    (fun f ->
      Hashtbl.replace callee_map f.Func.name
        (direct_callees f |> List.filter (fun c -> Program.find_func p c <> None)))
    p;
  (* Tarjan-style DFS post-order gives bottom-up; mark SCC members recursive. *)
  let names = Program.func_names p in
  let visiting = Hashtbl.create 64 in
  let done_ = Hashtbl.create 64 in
  let recursive = Hashtbl.create 8 in
  let order = ref [] in
  let rec dfs name =
    if Hashtbl.mem done_ name then ()
    else if Hashtbl.mem visiting name then Hashtbl.replace recursive name ()
    else begin
      Hashtbl.replace visiting name ();
      List.iter dfs (Option.value (Hashtbl.find_opt callee_map name) ~default:[]);
      Hashtbl.remove visiting name;
      Hashtbl.replace done_ name ();
      order := name :: !order
    end
  in
  List.iter dfs names;
  (* Also mark mutual recursion: any function reachable from itself. *)
  let reaches_self start =
    let seen = Hashtbl.create 16 in
    let rec go n =
      List.exists
        (fun c ->
          if String.equal c start then true
          else if Hashtbl.mem seen c then false
          else begin
            Hashtbl.replace seen c ();
            go c
          end)
        (Option.value (Hashtbl.find_opt callee_map n) ~default:[])
    in
    go start
  in
  List.iter (fun n -> if reaches_self n then Hashtbl.replace recursive n ()) names;
  { callee_map; order = List.rev !order; recursive }

let callees t name = Option.value (Hashtbl.find_opt t.callee_map name) ~default:[]
let bottom_up t = t.order
let top_down t = List.rev t.order
let is_recursive t name = Hashtbl.mem t.recursive name
