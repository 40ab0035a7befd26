module Wire = Csspgo_support.Wire
module PP = Probe_profile
module CP = Ctx_profile
module LP = Line_profile

let magic = "CSPB"
let version = 1
let tag_line = 1
let tag_probe = 2
let tag_ctx = 3

(* ------------------------------------------------------------------ *)
(* Encoders. Entry order is the profiles' canonical order, as in
   Text_io's writers, so the blob is canonical: equal profiles encode to
   equal bytes.                                                         *)

let enc_fentry e (fe : PP.fentry) =
  let probes = PP.sorted_probes fe in
  Wire.Enc.varint e (List.length probes);
  List.iter
    (fun (id, c) ->
      Wire.Enc.varint e id;
      Wire.Enc.varint64 e c)
    probes;
  let calls = PP.sorted_calls fe in
  Wire.Enc.varint e (List.length calls);
  List.iter
    (fun (site, callee, c) ->
      Wire.Enc.varint e site;
      Wire.Enc.varint64 e callee;
      Wire.Enc.varint64 e c)
    calls

let enc_probe (t : PP.t) =
  let e = Wire.Enc.create () in
  let funcs = PP.sorted_funcs t in
  Wire.Enc.varint e (List.length funcs);
  List.iter
    (fun (guid, (fe : PP.fentry)) ->
      Wire.Enc.varint64 e guid;
      Wire.Enc.string e (Text_io.name_or_guid t.PP.names guid);
      Wire.Enc.varint64 e fe.PP.fe_head;
      Wire.Enc.varint64 e fe.PP.fe_checksum;
      enc_fentry e fe)
    funcs;
  e

let enc_line (t : LP.t) =
  let e = Wire.Enc.create () in
  let funcs = LP.sorted_funcs t in
  Wire.Enc.varint e (List.length funcs);
  List.iter
    (fun (guid, (fe : LP.fentry)) ->
      Wire.Enc.varint64 e guid;
      Wire.Enc.string e (Text_io.name_or_guid t.LP.names guid);
      Wire.Enc.varint64 e fe.LP.fe_head;
      let lines = LP.sorted_lines fe in
      Wire.Enc.varint e (List.length lines);
      List.iter
        (fun ((l, d), c) ->
          Wire.Enc.varint e l;
          Wire.Enc.varint e d;
          Wire.Enc.varint64 e c)
        lines;
      let calls = LP.sorted_calls fe in
      Wire.Enc.varint e (List.length calls);
      List.iter
        (fun ((l, d), g, c) ->
          Wire.Enc.varint e l;
          Wire.Enc.varint e d;
          Wire.Enc.varint64 e g;
          Wire.Enc.varint64 e c)
        calls)
    funcs;
  e

(* Nodes are written in [iter_nodes] pre-order (parents strictly before
   children), so each node's context collapses to the emission index of
   its parent plus the connecting callsite probe: 0 marks a root, k > 0
   refers to node k-1. Decoding is O(1) per node, and deep contexts don't
   repeat their prefix frames on the wire. *)
let enc_ctx (t : CP.t) =
  let e = Wire.Enc.create () in
  let nodes = ref [] in
  CP.iter_nodes t (fun ctx node -> nodes := (ctx, node) :: !nodes);
  let nodes = List.rev !nodes in
  Wire.Enc.varint e (List.length nodes);
  let index : (CP.frame list, int) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun i (ctx, (node : CP.node)) ->
      Hashtbl.replace index ctx i;
      (match List.rev ctx with
      | [] ->
          Wire.Enc.varint e 0;
          Wire.Enc.varint e 0
      | (_, site) :: rev_parent ->
          Wire.Enc.varint e (Hashtbl.find index (List.rev rev_parent) + 1);
          Wire.Enc.varint e site);
      Wire.Enc.varint64 e node.CP.n_func;
      Wire.Enc.string e node.CP.n_name;
      Wire.Enc.byte e (if node.CP.n_inlined then 1 else 0);
      Wire.Enc.varint64 e node.CP.n_prof.PP.fe_head;
      Wire.Enc.varint64 e node.CP.n_prof.PP.fe_checksum;
      enc_fentry e node.CP.n_prof)
    nodes;
  e

let encode (p : Text_io.profile) =
  let section =
    match p with
    | Text_io.Line_prof t -> Wire.section ~tag:tag_line (enc_line t)
    | Text_io.Probe_prof t -> Wire.section ~tag:tag_probe (enc_probe t)
    | Text_io.Ctx_prof t -> Wire.section ~tag:tag_ctx (enc_ctx t)
  in
  Wire.frame ~magic ~version [ section ]

(* ------------------------------------------------------------------ *)
(* Decoders. Profiles are rebuilt through the same accumulation API the
   text readers use (add_probe recomputes totals, set_line_max keeps the
   max), so re-serialized canonical text is byte-identical.            *)

let fail what = raise (Wire.Error (Wire.Malformed what))

let counted d f =
  let n = Wire.Dec.varint d in
  if n < 0 then fail "negative entry count";
  for _ = 1 to n do
    f ()
  done

let dec_fentry d (fe : PP.fentry) =
  counted d (fun () ->
      let id = Wire.Dec.varint d in
      let c = Wire.Dec.varint64 d in
      PP.add_probe fe id c);
  counted d (fun () ->
      let site = Wire.Dec.varint d in
      let callee = Wire.Dec.varint64 d in
      let c = Wire.Dec.varint64 d in
      PP.add_call fe site callee c)

let dec_probe d =
  let t = PP.create () in
  counted d (fun () ->
      let guid = Wire.Dec.varint64 d in
      let name = Wire.Dec.string d in
      let fe = PP.get_or_add t guid ~name in
      fe.PP.fe_head <- Wire.Dec.varint64 d;
      fe.PP.fe_checksum <- Wire.Dec.varint64 d;
      dec_fentry d fe);
  if not (Wire.Dec.at_end d) then fail "trailing bytes in probe section";
  Text_io.Probe_prof t

let dec_line d =
  let t = LP.create () in
  counted d (fun () ->
      let guid = Wire.Dec.varint64 d in
      let name = Wire.Dec.string d in
      let fe = LP.get_or_add t guid ~name in
      fe.LP.fe_head <- Wire.Dec.varint64 d;
      counted d (fun () ->
          let l = Wire.Dec.varint d in
          let dc = Wire.Dec.varint d in
          let c = Wire.Dec.varint64 d in
          LP.set_line_max fe (l, dc) c);
      counted d (fun () ->
          let l = Wire.Dec.varint d in
          let dc = Wire.Dec.varint d in
          let g = Wire.Dec.varint64 d in
          let c = Wire.Dec.varint64 d in
          LP.add_call fe (l, dc) g c));
  if not (Wire.Dec.at_end d) then fail "trailing bytes in line section";
  Text_io.Line_prof t

let dec_ctx d =
  let t = CP.create () in
  let n = Wire.Dec.varint d in
  if n < 0 then fail "negative entry count";
  let nodes = Array.make (max n 1) None in
  for i = 0 to n - 1 do
    let pref = Wire.Dec.varint d in
    let site = Wire.Dec.varint d in
    if pref < 0 || pref > i then fail "context parent reference out of order";
    if pref = 0 && site <> 0 then fail "nonzero callsite on a root context";
    let guid = Wire.Dec.varint64 d in
    let name = Wire.Dec.string d in
    let inlined = Wire.Dec.byte d <> 0 in
    let head = Wire.Dec.varint64 d in
    let checksum = Wire.Dec.varint64 d in
    let parent = if pref = 0 then None else nodes.(pref - 1) in
    let node = CP.attach t ~parent ~site guid ~name in
    node.CP.n_name <- name;
    if inlined then node.CP.n_inlined <- true;
    node.CP.n_prof.PP.fe_head <- head;
    node.CP.n_prof.PP.fe_checksum <- checksum;
    dec_fentry d node.CP.n_prof;
    nodes.(i) <- Some node
  done;
  if not (Wire.Dec.at_end d) then fail "trailing bytes in ctx section";
  Text_io.Ctx_prof t

let decode s =
  match Wire.unframe ~magic ~max_version:version s with
  | Error e -> Error e
  | Ok (_version, sections) -> (
      try
        match sections with
        | [ sp ] when sp.Wire.s_tag = tag_line -> Ok (dec_line (Wire.Dec.of_span s sp))
        | [ sp ] when sp.Wire.s_tag = tag_probe -> Ok (dec_probe (Wire.Dec.of_span s sp))
        | [ sp ] when sp.Wire.s_tag = tag_ctx -> Ok (dec_ctx (Wire.Dec.of_span s sp))
        | [ sp ] ->
            Error
              (Wire.Malformed (Printf.sprintf "unknown section tag %d" sp.Wire.s_tag))
        | _ ->
            Error
              (Wire.Malformed
                 (Printf.sprintf "expected exactly one profile section, got %d"
                    (List.length sections)))
      with Wire.Error e -> Error e)

let is_binary s = Wire.sniff ~magic s
