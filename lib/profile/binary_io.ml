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

(* One entry loop for every shape: the counts, then the call records,
   each prefixed by its length. [key] writes a key. *)
let enc_counts sh key e fe =
  let counts = Counts.sorted sh fe in
  Wire.Enc.varint e (List.length counts);
  List.iter
    (fun (k, c) ->
      key e k;
      Wire.Enc.varint64 e c)
    counts;
  let calls = Counts.sorted_calls sh fe in
  Wire.Enc.varint e (List.length calls);
  List.iter
    (fun (k, callee, c) ->
      key e k;
      Wire.Enc.varint64 e callee;
      Wire.Enc.varint64 e c)
    calls

let enc_probe_key = Wire.Enc.varint

let enc_line_key e (l, d) =
  Wire.Enc.varint e l;
  Wire.Enc.varint e d

(* One function loop for both flat shapes: guid, name, head, the shape's
   own fields ([meta]), then the entry. *)
let enc_flat sh key meta funcs names =
  let e = Wire.Enc.create () in
  let funcs = Counts.sorted_funcs funcs in
  Wire.Enc.varint e (List.length funcs);
  List.iter
    (fun (guid, fe) ->
      Wire.Enc.varint64 e guid;
      Wire.Enc.string e (Text_io.name_or_guid names guid);
      Wire.Enc.varint64 e (sh.Counts.head fe);
      meta e fe;
      enc_counts sh key e fe)
    funcs;
  e

let enc_checksum e (fe : PP.fentry) = Wire.Enc.varint64 e fe.fe_checksum
let enc_probe (t : PP.t) = enc_flat PP.shape enc_probe_key enc_checksum t.funcs t.names
let enc_line (t : LP.t) = enc_flat LP.shape enc_line_key (fun _ _ -> ()) t.funcs t.names

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
      enc_counts PP.shape enc_probe_key e node.CP.n_prof)
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

(* [put] adds a decoded count: the readers' accumulation API, so a
   repeated key decodes as it parses from text. *)
let dec_counts sh key put d fe =
  counted d (fun () ->
      let k = key d in
      let c = Wire.Dec.varint64 d in
      put fe k c);
  counted d (fun () ->
      let k = key d in
      let callee = Wire.Dec.varint64 d in
      let c = Wire.Dec.varint64 d in
      Counts.add_call sh fe k callee c)

let dec_probe_key = Wire.Dec.varint

let dec_line_key d =
  let l = Wire.Dec.varint d in
  let dc = Wire.Dec.varint d in
  (l, dc)

let dec_flat sh key put meta ~what ~funcs ~names d =
  counted d (fun () ->
      let guid = Wire.Dec.varint64 d in
      let name = Wire.Dec.string d in
      let fe = Counts.get_or_add sh ~funcs ~names guid ~name in
      sh.Counts.set_head fe (Wire.Dec.varint64 d);
      meta d fe;
      dec_counts sh key put d fe);
  if not (Wire.Dec.at_end d) then fail ("trailing bytes in " ^ what ^ " section")

let dec_checksum d (fe : PP.fentry) = fe.fe_checksum <- Wire.Dec.varint64 d

let dec_probe d =
  let t = PP.create () in
  dec_flat PP.shape dec_probe_key PP.add_probe dec_checksum ~what:"probe" ~funcs:t.funcs
    ~names:t.names d;
  Text_io.Probe_prof t

let dec_line d =
  let t = LP.create () in
  dec_flat LP.shape dec_line_key LP.set_line_max (fun _ _ -> ()) ~what:"line" ~funcs:t.funcs
    ~names:t.names d;
  Text_io.Line_prof t

let dec_ctx d =
  let t = CP.create () in
  let n = Wire.Dec.varint d in
  if n < 0 then fail "negative entry count";
  (* Nine bytes is a node's least encoding: seven one-byte fields (parent
     reference, site, guid, name length, inlined mark, head, checksum) and
     its two entry counts. A count the section cannot hold is rejected
     before the node table is allocated. *)
  if n > Wire.Dec.remaining d / 9 then fail "more context nodes than the section holds";
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
    dec_counts PP.shape dec_probe_key PP.add_probe d node.CP.n_prof;
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
