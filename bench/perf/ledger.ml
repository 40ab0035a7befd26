(* The layer ledger of a traced run: spans recorded around calls into each
   layer's public functions, from the benchmark's side of the boundary, so
   the program under test carries no instrumentation. Spans stay in memory
   and are written out as a Chrome trace when the run ends.

   A span's self time is its duration minus the part its child spans
   cover; a layer metric sums the self time of the spans of that name
   within one unit. Spans are only ever opened on the main domain, around
   whole parallel regions, so recording needs no synchronization. *)

module Json = Csspgo_obs.Json

type span = {
  name : string;
  unit_id : int;
  parent : int;  (* index of the enclosing span, -1 at top level *)
  start : float;
  words0 : float;
  mutable stop : float;
  mutable words1 : float;
}

let spans : span list ref = ref []  (* newest first *)
let n_spans = ref 0
let open_spans : int list ref = ref []  (* innermost first *)
let current_unit = ref 0
let counts : (int * string, float) Hashtbl.t = Hashtbl.create 64

(* Words this domain has allocated: minor + major - promoted, so a block
   promoted out of the minor heap counts once. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span name f =
  let id = !n_spans in
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  let words0 = words () in
  let sp =
    {
      name;
      unit_id = !current_unit;
      parent;
      start = Unix.gettimeofday ();
      words0;
      stop = 0.;
      words1 = 0.;
    }
  in
  incr n_spans;
  spans := sp :: !spans;
  open_spans := id :: !open_spans;
  Fun.protect f ~finally:(fun () ->
      sp.stop <- Unix.gettimeofday ();
      sp.words1 <- words ();
      open_spans := List.tl !open_spans)

let count name v =
  let key = (!current_unit, name) in
  Hashtbl.replace counts key
    (v +. Option.value (Hashtbl.find_opt counts key) ~default:0.)

(* The root span of one traced unit; every layer span opened inside it is
   a descendant, and [coverage] is the share of its wall time they hold. *)
let traced_unit id f =
  current_unit := id;
  span "unit" f

type layer = { self_s : float; self_words : float }

type view = {
  wall : float;  (* duration of the unit's root span *)
  layers : (string, layer) Hashtbl.t;
  counted : (string, float) Hashtbl.t;
}

let view unit_id =
  let arr = Array.of_list (List.rev !spans) in
  let child_s = Array.make (Array.length arr) 0. in
  let child_w = Array.make (Array.length arr) 0. in
  Array.iter
    (fun s ->
      if s.parent >= 0 then begin
        child_s.(s.parent) <- child_s.(s.parent) +. (s.stop -. s.start);
        child_w.(s.parent) <- child_w.(s.parent) +. (s.words1 -. s.words0)
      end)
    arr;
  let layers = Hashtbl.create 32 in
  let wall = ref 0. in
  Array.iteri
    (fun i s ->
      if s.unit_id = unit_id then begin
        if s.parent < 0 then wall := !wall +. (s.stop -. s.start);
        let l =
          Option.value (Hashtbl.find_opt layers s.name)
            ~default:{ self_s = 0.; self_words = 0. }
        in
        Hashtbl.replace layers s.name
          {
            self_s = l.self_s +. (s.stop -. s.start -. child_s.(i));
            self_words = l.self_words +. (s.words1 -. s.words0 -. child_w.(i));
          }
      end)
    arr;
  let counted = Hashtbl.create 32 in
  Hashtbl.iter
    (fun (u, name) v -> if u = unit_id then Hashtbl.replace counted name v)
    counts;
  { wall = !wall; layers; counted }

let self_s v name =
  match Hashtbl.find_opt v.layers name with Some l -> l.self_s | None -> 0.

let self_mw v name =
  match Hashtbl.find_opt v.layers name with
  | Some l -> l.self_words /. 1e6
  | None -> 0.

let counted v name = Option.value (Hashtbl.find_opt v.counted name) ~default:0.

(* Share of the unit's wall time spent inside some layer span: everything
   but the root span's own self time. *)
let coverage v = if v.wall > 0. then 1. -. (self_s v "unit" /. v.wall) else 0.

(* Chrome trace-event JSON ("X" complete events, microseconds since the
   first span), loadable in chrome://tracing and Perfetto. *)
let chrome_trace () =
  let arr = Array.of_list (List.rev !spans) in
  let t0 = if Array.length arr = 0 then 0. else arr.(0).start in
  let us t = Float.round ((t -. t0) *. 1e6) in
  let layer name =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let event i s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String (layer s.name));
        ("ph", Json.String "X");
        ("ts", Json.Float (us s.start));
        ("dur", Json.Float (us s.stop -. us s.start));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("unit", Json.Int s.unit_id);
              ("span", Json.Int i);
              ("parent", Json.Int s.parent);
              ("alloc_words", Json.Float (s.words1 -. s.words0));
            ] );
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (Array.to_list (Array.mapi event arr)));
         ("displayTimeUnit", Json.String "ms");
       ])
