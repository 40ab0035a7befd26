type window = {
  w_index : int;
  w_at_us : int64;
  w_dur_us : int64;
  w_counters : (string * int) list;
  w_gauges : (string * int) list;
}

type t = {
  retain : int;
  cursor : Clock.cursor option;
  mutable prev : Metrics.snapshot option;  (* last cumulative snapshot *)
  mutable prev_at : int64;
  mutable newest_first : window list;  (* ring: at most [retain] entries *)
  mutable total : int;
  mutable evicted : int;
}

(* Schedule-dependent instruments, left out of every window. *)
let schedule_dependent = [ "sched."; "parcorr.jobs-clamped" ]

let create ?(retain = 64) ?clock () =
  let clock = match clock with Some c -> c | None -> Clock.fixed () in
  {
    retain = max 1 retain;
    cursor = Some (Clock.cursor clock);
    prev = None;
    prev_at = 0L;
    newest_first = [];
    total = 0;
    evicted = 0;
  }

let dropped name =
  List.exists
    (fun p ->
      String.length name >= String.length p
      && String.equal (String.sub name 0 (String.length p)) p)
    schedule_dependent

(* Merge-walk two name-sorted cumulative counter lists into per-window
   deltas; names absent on the previous side count from zero. *)
let delta_counters prev cur =
  let rec go prev cur acc =
    match (prev, cur) with
    | _, [] -> List.rev acc
    | [], (n, v) :: cur -> go [] cur (if v <> 0 then (n, v) :: acc else acc)
    | (pn, pv) :: ptl, (n, v) :: ctl ->
        let c = compare pn n in
        if c < 0 then go ptl cur acc (* instrument disappeared: ignore *)
        else if c > 0 then go prev ctl (if v <> 0 then (n, v) :: acc else acc)
        else
          let d = v - pv in
          go ptl ctl (if d <> 0 then (n, d) :: acc else acc)
  in
  go prev cur []

let hist_counters (snap : Metrics.snapshot) =
  List.concat_map
    (fun (name, (h : Metrics.hist_summary)) ->
      [ (name ^ "/count", h.Metrics.h_count); (name ^ "/sum", h.Metrics.h_sum) ])
    snap.Metrics.s_histograms

let cumulative_counters (snap : Metrics.snapshot) =
  List.filter
    (fun (n, _) -> not (dropped n))
    (List.sort compare (snap.Metrics.s_counters @ hist_counters snap))

let push t w =
  let rec keep i = function
    | [] -> ([], 0)
    | rest when i >= t.retain -> ([], List.length rest)
    | x :: tl ->
        let kept, dropped = keep (i + 1) tl in
        (x :: kept, dropped)
  in
  let kept, dropped = keep 0 (w :: t.newest_first) in
  t.newest_first <- kept;
  t.total <- t.total + 1;
  t.evicted <- t.evicted + dropped

let record t (snap : Metrics.snapshot) =
  let at =
    match t.cursor with Some c -> Clock.now_us c | None -> Int64.of_int t.total
  in
  let prev_counters =
    match t.prev with None -> [] | Some p -> cumulative_counters p
  in
  let counters = delta_counters prev_counters (cumulative_counters snap) in
  let gauges =
    List.filter (fun (n, _) -> not (dropped n)) snap.Metrics.s_gauges
  in
  let dur = if t.prev = None then 0L else Int64.sub at t.prev_at in
  let w =
    {
      w_index = t.total;
      w_at_us = at;
      w_dur_us = (if Int64.compare dur 0L > 0 then dur else 0L);
      w_counters = counters;
      w_gauges = gauges;
    }
  in
  t.prev <- Some snap;
  t.prev_at <- at;
  push t w;
  w

let windows t = List.rev t.newest_first
let total t = t.total
let evicted t = t.evicted

let rate w name =
  match List.assoc_opt name w.w_counters with
  | None -> None
  | Some d ->
      if Int64.compare w.w_dur_us 0L > 0 then
        Some (float_of_int d *. 1e6 /. Int64.to_float w.w_dur_us)
      else None

(* Union of two name-sorted assoc lists under a binary op (sum or max);
   names on one side only pass through. *)
let union_assoc op a b =
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | (an, av) :: atl, (bn, bv) :: btl ->
        let c = compare an bn in
        if c < 0 then go atl b ((an, av) :: acc)
        else if c > 0 then go a btl ((bn, bv) :: acc)
        else go atl btl ((an, op av bv) :: acc)
  in
  go a b []

let merge_window a b =
  {
    w_index = a.w_index;
    w_at_us = (if Int64.compare a.w_at_us b.w_at_us >= 0 then a.w_at_us else b.w_at_us);
    w_dur_us =
      (if Int64.compare a.w_dur_us b.w_dur_us >= 0 then a.w_dur_us else b.w_dur_us);
    w_counters = union_assoc ( + ) a.w_counters b.w_counters;
    w_gauges = union_assoc max a.w_gauges b.w_gauges;
  }

let merge a b =
  let retain = max a.retain b.retain in
  (* Union by ascending index, then re-apply retention from the tail. *)
  let rec go xs ys acc =
    match (xs, ys) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xtl, y :: ytl ->
        if x.w_index < y.w_index then go xtl ys (x :: acc)
        else if x.w_index > y.w_index then go xs ytl (y :: acc)
        else go xtl ytl (merge_window x y :: acc)
  in
  let union = go (windows a) (windows b) [] in
  let n = List.length union in
  let drop = max 0 (n - retain) in
  let rec skip k = function tl when k = 0 -> tl | _ :: tl -> skip (k - 1) tl | [] -> [] in
  let kept = skip drop union in
  let total = max a.total b.total in
  {
    retain;
    cursor = None;
    prev = None;
    prev_at = 0L;
    newest_first = List.rev kept;
    total;
    (* Derived from the ring invariant (evicted = total - kept), which
       keeps merge associative: counting merge-time drops on top of a
       max would tally them differently per association order. *)
    evicted = total - List.length kept;
  }

let assoc_json ints = Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) ints)

let window_to_json w =
  Json.Obj
    [
      ("index", Json.Int w.w_index);
      ("at_us", Json.Int (Int64.to_int w.w_at_us));
      ("dur_us", Json.Int (Int64.to_int w.w_dur_us));
      ("counters", assoc_json w.w_counters);
      ("gauges", assoc_json w.w_gauges);
    ]

let to_json t =
  Json.Obj
    [
      ("windows", Json.List (List.map window_to_json (windows t)));
      ("total", Json.Int (total t));
      ("evicted", Json.Int (evicted t));
    ]
