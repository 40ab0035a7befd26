module Fnv = Csspgo_support.Fnv
module M = Csspgo_obs.Metrics

type stats = {
  hits : int;
  misses : int;
  stores : int;
  corrupt : int;
}

type t = {
  cdir : string option;
  mem : (string * string, string) Hashtbl.t;  (* (kind, joined key) -> payload *)
  lock : Mutex.t;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_stores : int;
  mutable c_corrupt : int;
  (* registry handles, resolved once at creation *)
  m_hit : M.counter;
  m_miss : M.counter;
  m_store : M.counter;
  m_poisoned : M.counter;
}

let magic = "csspgo-cache 1"
let suffix = ".bin"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let create ?(obs = M.null) ?dir () =
  Option.iter mkdir_p dir;
  {
    cdir = dir;
    mem = Hashtbl.create 64;
    lock = Mutex.create ();
    c_hits = 0;
    c_misses = 0;
    c_stores = 0;
    c_corrupt = 0;
    m_hit = M.counter obs "cache.hit";
    m_miss = M.counter obs "cache.miss";
    m_store = M.counter obs "cache.store";
    m_poisoned = M.counter obs "cache.poisoned";
  }

let dir t = t.cdir
let join_key key = String.concat "\x1f" key

let entry_file ~kind ~key =
  Printf.sprintf "%s.%Lx%s" kind (Fnv.hash_string (join_key key)) suffix

let entry_path t ~kind ~key =
  Option.map (fun d -> Filename.concat d (entry_file ~kind ~key)) t.cdir

let digest_hex payload = Printf.sprintf "%Lx" (Fnv.hash_string payload)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          Some (really_input_string ic len))

(* Entry layout: four header lines (magic, kind, joined key, payload digest)
   followed by the raw payload bytes. *)
let encode ~kind ~key payload =
  String.concat "\n" [ magic; kind; join_key key; digest_hex payload; payload ]

type decoded = Payload of string | Mismatch | Corrupt

let decode ~kind ~key blob =
  let next from =
    match String.index_from_opt blob from '\n' with
    | Some i -> Some (String.sub blob from (i - from), i + 1)
    | None -> None
  in
  match next 0 with
  | Some (m, p1) when String.equal m magic -> (
      match next p1 with
      | Some (k, p2) -> (
          match next p2 with
          | Some (kj, p3) -> (
              match next p3 with
              | Some (dg, p4) ->
                  if not (String.equal k kind && String.equal kj (join_key key)) then
                    Mismatch (* filename hash collision: someone else's entry *)
                  else
                    let payload = String.sub blob p4 (String.length blob - p4) in
                    if String.equal dg (digest_hex payload) then Payload payload
                    else Corrupt
              | None -> Corrupt)
          | None -> Corrupt)
      | None -> Corrupt)
  | _ -> Corrupt

let find t ~kind ~key =
  locked t (fun () ->
      match Hashtbl.find_opt t.mem (kind, join_key key) with
      | Some payload ->
          t.c_hits <- t.c_hits + 1;
          M.incr t.m_hit;
          Some payload
      | None -> (
          let disk =
            match entry_path t ~kind ~key with
            | None -> None
            | Some path -> (
                match read_file path with
                | None -> None
                | Some blob -> (
                    match decode ~kind ~key blob with
                    | Payload payload ->
                        Hashtbl.replace t.mem (kind, join_key key) payload;
                        Some payload
                    | Mismatch -> None
                    | Corrupt ->
                        t.c_corrupt <- t.c_corrupt + 1;
                        M.incr t.m_poisoned;
                        (try Sys.remove path with Sys_error _ -> ());
                        None))
          in
          (match disk with
          | Some _ ->
              t.c_hits <- t.c_hits + 1;
              M.incr t.m_hit
          | None ->
              t.c_misses <- t.c_misses + 1;
              M.incr t.m_miss);
          disk))

let store t ~kind ~key payload =
  locked t (fun () ->
      t.c_stores <- t.c_stores + 1;
      M.incr t.m_store;
      Hashtbl.replace t.mem (kind, join_key key) payload;
      match entry_path t ~kind ~key with
      | None -> ()
      | Some path -> (
          try
            let tmp = path ^ ".tmp" in
            let oc = open_out_bin tmp in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () -> output_string oc (encode ~kind ~key payload));
            Sys.rename tmp path
          with Sys_error _ -> () (* disk trouble never fails the build *)))

let memo t ~kind ~key ~ser ~de f =
  let recompute () =
    let v = f () in
    store t ~kind ~key (ser v);
    v
  in
  match find t ~kind ~key with
  | None -> recompute ()
  | Some payload -> (
      match de payload with
      | v -> v
      | exception _ ->
          locked t (fun () ->
              t.c_corrupt <- t.c_corrupt + 1;
              M.incr t.m_poisoned);
          recompute ())

let stats t =
  locked t (fun () ->
      { hits = t.c_hits; misses = t.c_misses; stores = t.c_stores; corrupt = t.c_corrupt })

(* ------------------------------------------------------------------ *)
(* Offline directory inspection.                                       *)

type disk_stats = {
  d_entries : int;
  d_bytes : int;
  d_kinds : (string * int) list;
}

let is_entry name = Filename.check_suffix name suffix

let kind_of_entry name =
  let base = Filename.chop_suffix name suffix in
  match String.rindex_opt base '.' with
  | Some i -> String.sub base 0 i
  | None -> base

let scan_dir dir =
  let files = try Array.to_list (Sys.readdir dir) with Sys_error _ -> [] in
  let kinds = Hashtbl.create 8 in
  let entries, bytes =
    List.fold_left
      (fun (n, b) name ->
        if not (is_entry name) then (n, b)
        else begin
          let k = kind_of_entry name in
          Hashtbl.replace kinds k (1 + Option.value (Hashtbl.find_opt kinds k) ~default:0);
          let sz =
            match read_file (Filename.concat dir name) with
            | Some blob -> String.length blob
            | None -> 0
          in
          (n + 1, b + sz)
        end)
      (0, 0) files
  in
  let d_kinds =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) kinds [] |> List.sort compare
  in
  { d_entries = entries; d_bytes = bytes; d_kinds }

let clear_dir dir =
  let files = try Array.to_list (Sys.readdir dir) with Sys_error _ -> [] in
  List.fold_left
    (fun n name ->
      if is_entry name then (
        (try Sys.remove (Filename.concat dir name) with Sys_error _ -> ());
        n + 1)
      else n)
    0 files
