module Ir = Csspgo_ir
module PP = Probe_profile
module CP = Ctx_profile
module LP = Line_profile

exception Parse_error of string * int

(* ------------------------------------------------------------------ *)
(* Writers. Deterministic: entries in the profiles' canonical order.   *)

let write_fentry fmt (fe : PP.fentry) =
  List.iter
    (fun (id, c) -> Format.fprintf fmt " probe %d %Ld@." id c)
    (Counts.sorted PP.shape fe);
  List.iter
    (fun (site, callee, c) -> Format.fprintf fmt " call %d %Lx %Ld@." site callee c)
    (Counts.sorted_calls PP.shape fe)

let name_or_guid names guid =
  Option.value (Ir.Guid.Tbl.find_opt names guid) ~default:(Printf.sprintf "%Lx" guid)

let write_probe fmt (t : PP.t) =
  List.iter
    (fun (guid, (fe : PP.fentry)) ->
      Format.fprintf fmt "function %s guid=%Lx total=%Ld head=%Ld checksum=%Lx@."
        (name_or_guid t.PP.names guid) guid fe.PP.fe_total fe.PP.fe_head fe.PP.fe_checksum;
      write_fentry fmt fe)
    (Counts.sorted_funcs t.PP.funcs)

let write_ctx fmt (t : CP.t) =
  CP.iter_nodes t (fun ctx node ->
      Format.fprintf fmt "context %s guid=%Lx%s@." node.CP.n_name node.CP.n_func
        (if node.CP.n_inlined then " inlined" else "");
      List.iter (fun (g, site) -> Format.fprintf fmt " frame %Lx %d@." g site) ctx;
      Format.fprintf fmt " head %Ld@." node.CP.n_prof.PP.fe_head;
      Format.fprintf fmt " checksum %Lx@." node.CP.n_prof.PP.fe_checksum;
      write_fentry fmt node.CP.n_prof)

let write_line fmt (t : LP.t) =
  List.iter
    (fun (guid, (fe : LP.fentry)) ->
      Format.fprintf fmt "function %s guid=%Lx total=%Ld head=%Ld@."
        (name_or_guid t.LP.names guid) guid fe.LP.fe_total fe.LP.fe_head;
      List.iter
        (fun ((l, d), c) -> Format.fprintf fmt " line %d.%d %Ld@." l d c)
        (Counts.sorted LP.shape fe);
      List.iter
        (fun ((l, d), g, c) -> Format.fprintf fmt " callline %d.%d %Lx %Ld@." l d g c)
        (Counts.sorted_calls LP.shape fe))
    (Counts.sorted_funcs t.LP.funcs)

(* ------------------------------------------------------------------ *)
(* Readers.                                                            *)

type line = { no : int; words : string list }

let tokenize_lines s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter_map (fun (no, l) ->
         let l = match String.index_opt l '#' with Some i -> String.sub l 0 i | None -> l in
         let words =
           String.split_on_char ' ' l |> List.filter (fun w -> not (String.equal w ""))
         in
         if words = [] then None else Some { no; words })

let fail no fmt = Format.kasprintf (fun m -> raise (Parse_error (m, no))) fmt

let parse_kv no word key =
  match String.split_on_char '=' word with
  | [ k; v ] when String.equal k key -> v
  | _ -> fail no "expected %s=<value>, got %S" key word

let int64_of no s =
  match Int64.of_string_opt s with Some v -> v | None -> fail no "bad integer %S" s

let hex_of no s =
  match Int64.of_string_opt ("0x" ^ s) with Some v -> v | None -> fail no "bad hex %S" s

let int_of no s =
  match int_of_string_opt s with Some v -> v | None -> fail no "bad int %S" s

let read_probe_impl s =
  let t = PP.create () in
  let cur = ref None in
  List.iter
    (fun { no; words } ->
      match words with
      | [ "function"; name; g; total; head; checksum ] ->
          let guid = hex_of no (parse_kv no g "guid") in
          let fe = PP.get_or_add t guid ~name in
          ignore (parse_kv no total "total");
          fe.PP.fe_head <- int64_of no (parse_kv no head "head");
          fe.PP.fe_checksum <- hex_of no (parse_kv no checksum "checksum");
          cur := Some fe
      | [ "probe"; id; c ] -> (
          match !cur with
          | Some fe -> PP.add_probe fe (int_of no id) (int64_of no c)
          | None -> fail no "probe record outside function")
      | [ "call"; site; callee; c ] -> (
          match !cur with
          | Some fe -> PP.add_call fe (int_of no site) (hex_of no callee) (int64_of no c)
          | None -> fail no "call record outside function")
      | w :: _ -> fail no "unknown record %S" w
      | [] -> ())
    (tokenize_lines s);
  t

let read_ctx_impl s =
  let t = CP.create () in
  let cur = ref None in
  let pending_frames = ref [] in
  let pending_leaf = ref None in
  let resolve no =
    match !pending_leaf with
    | None -> fail no "record outside context"
    | Some (name, guid, inlined) ->
        let node =
          match List.rev !pending_frames with
          | [] -> Some (CP.base t guid ~name)
          | frames ->
              let rec pairs = function
                | [ (g, site) ] -> [ ((g, site), guid, name) ]
                | (g, site) :: ((g2, _) :: _ as rest) ->
                    ((g, site), g2, Printf.sprintf "%Lx" g2) :: pairs rest
                | [] -> []
              in
              CP.node_at t ~path:(pairs frames)
        in
        (match node with
        | Some n ->
            n.CP.n_name <- name;
            if inlined then n.CP.n_inlined <- true;
            cur := Some n
        | None -> fail no "unresolvable context");
        pending_leaf := None;
        pending_frames := []
  in
  let node no =
    if !pending_leaf <> None then resolve no;
    match !cur with Some n -> n | None -> fail no "record outside context"
  in
  List.iter
    (fun { no; words } ->
      match words with
      | "context" :: name :: g :: rest ->
          if !pending_leaf <> None then resolve no;
          cur := None;
          let guid = hex_of no (parse_kv no g "guid") in
          pending_leaf := Some (name, guid, List.mem "inlined" rest)
      | [ "frame"; g; site ] ->
          if !pending_leaf = None then fail no "frame outside context header";
          pending_frames := (hex_of no g, int_of no site) :: !pending_frames
      | [ "head"; c ] ->
          let n = node no in
          n.CP.n_prof.PP.fe_head <- int64_of no c
      | [ "checksum"; c ] ->
          let n = node no in
          n.CP.n_prof.PP.fe_checksum <- hex_of no c
      | [ "probe"; id; c ] -> PP.add_probe (node no).CP.n_prof (int_of no id) (int64_of no c)
      | [ "call"; site; callee; c ] ->
          PP.add_call (node no).CP.n_prof (int_of no site) (hex_of no callee) (int64_of no c)
      | w :: _ -> fail no "unknown record %S" w
      | [] -> ())
    (tokenize_lines s);
  if !pending_leaf <> None then resolve 0;
  t

let read_line_impl s =
  let t = LP.create () in
  let cur = ref None in
  let parse_key no s =
    match String.split_on_char '.' s with
    | [ l; d ] -> (int_of no l, int_of no d)
    | _ -> fail no "bad line key %S" s
  in
  List.iter
    (fun { no; words } ->
      match words with
      | [ "function"; name; g; total; head ] ->
          let guid = hex_of no (parse_kv no g "guid") in
          let fe = LP.get_or_add t guid ~name in
          ignore (parse_kv no total "total");
          fe.LP.fe_head <- int64_of no (parse_kv no head "head");
          cur := Some fe
      | [ "line"; key; c ] -> (
          match !cur with
          | Some fe -> LP.set_line_max fe (parse_key no key) (int64_of no c)
          | None -> fail no "line record outside function")
      | [ "callline"; key; callee; c ] -> (
          match !cur with
          | Some fe -> LP.add_call fe (parse_key no key) (hex_of no callee) (int64_of no c)
          | None -> fail no "callline record outside function")
      | w :: _ -> fail no "unknown record %S" w
      | [] -> ())
    (tokenize_lines s);
  t

(* ------------------------------------------------------------------ *)
(* Unified interface.                                                  *)

type kind = Line | Probe | Ctx

type profile =
  | Line_prof of LP.t
  | Probe_prof of PP.t
  | Ctx_prof of CP.t

let kind_name = function Line -> "line" | Probe -> "probe" | Ctx -> "ctx"
let kind_of = function Line_prof _ -> Line | Probe_prof _ -> Probe | Ctx_prof _ -> Ctx

let write fmt = function
  | Line_prof t -> write_line fmt t
  | Probe_prof t -> write_probe fmt t
  | Ctx_prof t -> write_ctx fmt t

let to_string p = Format.asprintf "%a" write p

let read kind s =
  match kind with
  | Line -> Line_prof (read_line_impl s)
  | Probe -> Probe_prof (read_probe_impl s)
  | Ctx -> Ctx_prof (read_ctx_impl s)

let detect_kind s =
  match tokenize_lines s with
  | [] -> None
  | { words; _ } :: _ -> (
      match words with
      | "context" :: _ -> Some Ctx
      | "function" :: rest ->
          if List.exists (fun w -> String.length w >= 9 && String.sub w 0 9 = "checksum=") rest
          then Some Probe
          else Some Line
      | _ -> Some Probe (* headerless garbage: let the probe reader report it *))

let of_string ?kind s =
  match kind with
  | Some k -> read k s
  | None -> (
      match detect_kind s with
      | Some k -> read k s
      | None -> raise (Parse_error ("empty profile text: cannot detect kind", 0)))

let total_samples = function
  | Line_prof t -> LP.total_samples t
  | Probe_prof t -> PP.total_samples t
  | Ctx_prof t -> CP.total_samples t
