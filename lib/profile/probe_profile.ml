module Ir = Csspgo_ir

type fentry = {
  mutable fe_total : int64;
  mutable fe_head : int64;
  fe_probes : (int, int64) Hashtbl.t;
  fe_calls : (int, (Ir.Guid.t, int64) Hashtbl.t) Hashtbl.t;
  mutable fe_checksum : int64;
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
          fe_probes = Hashtbl.create 32;
          fe_calls = Hashtbl.create 8;
          fe_checksum = 0L;
        }
      in
      Ir.Guid.Tbl.replace t.funcs guid fe;
      Ir.Guid.Tbl.replace t.names guid name;
      fe

let add_probe fe id n =
  let cur = Option.value (Hashtbl.find_opt fe.fe_probes id) ~default:0L in
  Hashtbl.replace fe.fe_probes id (Int64.add cur n);
  fe.fe_total <- Int64.add fe.fe_total n

let add_call fe id callee n =
  let tbl =
    match Hashtbl.find_opt fe.fe_calls id with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace fe.fe_calls id tbl;
        tbl
  in
  let cur = Option.value (Hashtbl.find_opt tbl callee) ~default:0L in
  Hashtbl.replace tbl callee (Int64.add cur n)

let probe_count fe id = Option.value (Hashtbl.find_opt fe.fe_probes id) ~default:0L

let call_counts fe id =
  match Hashtbl.find_opt fe.fe_calls id with
  | None -> []
  | Some tbl ->
      Hashtbl.fold (fun g c acc -> (g, c) :: acc) tbl []
      |> List.sort (fun (g1, _) (g2, _) -> Ir.Guid.compare g1 g2)

let total_samples t =
  Ir.Guid.Tbl.fold (fun _ fe acc -> Int64.add acc fe.fe_total) t.funcs 0L

(* The canonical entry order: functions by guid, probes by id, call
   records by (site, callee). Every writer and digest reads entries through
   these, so equal profiles serialize and fingerprint identically. *)
let sorted_funcs t =
  Ir.Guid.Tbl.fold (fun g fe acc -> (g, fe) :: acc) t.funcs []
  |> List.sort (fun (a, _) (b, _) -> Ir.Guid.compare a b)

let sorted_probes fe =
  Hashtbl.fold (fun id c acc -> (id, c) :: acc) fe.fe_probes [] |> List.sort compare

let sorted_calls fe =
  Hashtbl.fold
    (fun site tbl acc -> Hashtbl.fold (fun callee c acc -> (site, callee, c) :: acc) tbl acc)
    fe.fe_calls []
  |> List.sort compare
