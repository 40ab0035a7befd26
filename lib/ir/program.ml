type t = {
  funcs : (string, Func.t) Hashtbl.t;
  mutable globals : (string * int) list;
  mutable main : string;
}

let mk () = { funcs = Hashtbl.create 64; globals = []; main = "main" }

let add_func t f = Hashtbl.replace t.funcs f.Func.name f

let func t name =
  match Hashtbl.find_opt t.funcs name with
  | Some f -> f
  | None -> invalid_arg ("Program.func: unknown function " ^ name)

let find_func t name = Hashtbl.find_opt t.funcs name

let find_func_by_guid t guid =
  let r = ref None in
  Hashtbl.iter (fun _ f -> if Guid.equal f.Func.guid guid then r := Some f) t.funcs;
  !r

let func_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.funcs [] |> List.sort String.compare

let iter_funcs f t = List.iter (fun name -> f (func t name)) (func_names t)

let add_global t name size = t.globals <- t.globals @ [ (name, size) ]

let copy t =
  let funcs = Hashtbl.create (Hashtbl.length t.funcs) in
  Hashtbl.iter (fun name f -> Hashtbl.replace funcs name (Func.copy f)) t.funcs;
  { funcs; globals = t.globals; main = t.main }

let pp fmt t =
  List.iter (fun (g, n) -> Format.fprintf fmt "global %s[%d]@." g n) t.globals;
  iter_funcs (fun f -> Func.pp fmt f) t
