module Label_set = Csspgo_support.Label_set

type slice = {
  sl_label : Label_set.t;
  sl_weight : int64;
  sl_profile : Text_io.profile;
}

type t = { kind : Text_io.kind; slices : slice list }

let make ~kind slices =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if Text_io.kind_of s.sl_profile <> kind then
        invalid_arg "Labels.make: slice kind mismatch";
      if Int64.compare s.sl_weight 0L < 0 then
        invalid_arg "Labels.make: negative slice weight";
      let key = Label_set.canonical s.sl_label in
      if Hashtbl.mem seen key then invalid_arg "Labels.make: duplicate label";
      Hashtbl.replace seen key ())
    slices;
  { kind; slices }

let slices t = t.slices
let n_slices t = List.length t.slices
let total_weight t = List.fold_left (fun a s -> Int64.add a s.sl_weight) 0L t.slices

let find t label =
  List.find_opt (fun s -> Label_set.equal s.sl_label label) t.slices

let blend t =
  Merge.weighted ~kind:t.kind (List.map (fun s -> (1L, s.sl_profile)) t.slices)

let project t ~keys =
  (* Group by projected label in first-appearance order; colliding slices
     merge at weight 1 (each already carries its observed mass) and their
     weights add, so projecting never changes the total sample mass. *)
  let order = ref [] in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let label = Label_set.project s.sl_label ~keys in
      let key = Label_set.canonical label in
      match Hashtbl.find_opt groups key with
      | Some (w, p) ->
          Merge.into ~into:p ~weight:1L s.sl_profile;
          Hashtbl.replace groups key (Int64.add w s.sl_weight, p)
      | None ->
          order := (key, label) :: !order;
          let p = Merge.empty t.kind in
          Merge.into ~into:p ~weight:1L s.sl_profile;
          Hashtbl.replace groups key (s.sl_weight, p))
    t.slices;
  {
    kind = t.kind;
    slices =
      List.rev_map
        (fun (key, label) ->
          let w, p = Hashtbl.find groups key in
          { sl_label = label; sl_weight = w; sl_profile = p })
        !order;
  }

(* --- text form ------------------------------------------------------- *)

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "labeledprofile %s %d\n" (Text_io.kind_name t.kind)
       (n_slices t));
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "label %s weight=%Ld\n"
           (Label_set.to_string s.sl_label)
           s.sl_weight);
      Buffer.add_string buf (Text_io.to_string s.sl_profile))
    t.slices;
  Buffer.contents buf
