module Ir = Csspgo_ir

type key = int * int

type fentry = {
  mutable fe_total : int64;
  mutable fe_head : int64;
  fe_lines : (key, int64) Hashtbl.t;
  fe_calls : (key, (Ir.Guid.t, int64) Hashtbl.t) Hashtbl.t;
}

type t = {
  funcs : fentry Ir.Guid.Tbl.t;
  names : string Ir.Guid.Tbl.t;
}

let create () = { funcs = Ir.Guid.Tbl.create 64; names = Ir.Guid.Tbl.create 64 }

let get t guid = Ir.Guid.Tbl.find_opt t.funcs guid

let get_or_add t guid ~name =
  match Ir.Guid.Tbl.find_opt t.funcs guid with
  | Some fe -> fe
  | None ->
      let fe =
        {
          fe_total = 0L;
          fe_head = 0L;
          fe_lines = Hashtbl.create 32;
          fe_calls = Hashtbl.create 8;
        }
      in
      Ir.Guid.Tbl.replace t.funcs guid fe;
      Ir.Guid.Tbl.replace t.names guid name;
      fe

let add_line fe key n =
  let cur = Option.value (Hashtbl.find_opt fe.fe_lines key) ~default:0L in
  Hashtbl.replace fe.fe_lines key (Int64.add cur n);
  fe.fe_total <- Int64.add fe.fe_total n

let set_line_max fe key n =
  let cur = Option.value (Hashtbl.find_opt fe.fe_lines key) ~default:0L in
  if Int64.compare n cur > 0 then begin
    Hashtbl.replace fe.fe_lines key n;
    fe.fe_total <- Int64.add fe.fe_total (Int64.sub n cur)
  end

let add_call fe key callee n =
  let tbl =
    match Hashtbl.find_opt fe.fe_calls key with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace fe.fe_calls key tbl;
        tbl
  in
  let cur = Option.value (Hashtbl.find_opt tbl callee) ~default:0L in
  Hashtbl.replace tbl callee (Int64.add cur n)

let line_count fe key = Option.value (Hashtbl.find_opt fe.fe_lines key) ~default:0L

let call_counts fe key =
  match Hashtbl.find_opt fe.fe_calls key with
  | None -> []
  | Some tbl ->
      Hashtbl.fold (fun g c acc -> (g, c) :: acc) tbl []
      |> List.sort (fun (g1, _) (g2, _) -> Ir.Guid.compare g1 g2)

let total_samples t =
  Ir.Guid.Tbl.fold (fun _ fe acc -> Int64.add acc fe.fe_total) t.funcs 0L

let pp fmt t =
  Ir.Guid.Tbl.iter
    (fun guid fe ->
      let name =
        match Ir.Guid.Tbl.find_opt t.names guid with
        | Some n -> n
        | None -> Format.asprintf "%a" Ir.Guid.pp guid
      in
      Format.fprintf fmt "%s: total=%Ld head=%Ld@." name fe.fe_total fe.fe_head;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) fe.fe_lines []
      |> List.sort compare
      |> List.iter (fun ((l, d), c) -> Format.fprintf fmt "  %d.%d: %Ld@." l d c))
    t.funcs
