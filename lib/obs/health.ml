type level = Ok | Warn | Crit

let level_name = function Ok -> "ok" | Warn -> "warn" | Crit -> "crit"
let rank = function Ok -> 0 | Warn -> 1 | Crit -> 2
let worst a b = if rank a >= rank b then a else b

type indicator = {
  in_name : string;
  in_value : float option;
  in_level : level;
  in_detail : string;
}

type alert = {
  al_window : int;
  al_indicator : string;
  al_level : level;
  al_value : float;
  al_baseline : float;
}

type window_report = {
  wr_index : int;
  wr_indicators : indicator list;
  wr_level : level;
  wr_alerts : alert list;
}

type report = {
  hp_windows : window_report list;
  hp_alerts : alert list;
  hp_level : level;
}

(* Which way is bad: High indicators regress upward, Low downward. *)
type direction = High | Low

(* [sp_warn]/[sp_crit]: the value at which the indicator scores Warn/Crit,
   reached from below for High indicators and from above for Low ones. *)
type spec = { sp_name : string; sp_dir : direction; sp_warn : float; sp_crit : float }

let specs =
  [
    { sp_name = "collector.drop-rate"; sp_dir = High; sp_warn = 0.01; sp_crit = 0.05 };
    { sp_name = "corr.hit-rate"; sp_dir = Low; sp_warn = 0.95; sp_crit = 0.80 };
    { sp_name = "ctx.inferred-share"; sp_dir = High; sp_warn = 0.30; sp_crit = 0.60 };
    { sp_name = "stale.recovery"; sp_dir = Low; sp_warn = 0.80; sp_crit = 0.50 };
    { sp_name = "profile.overlap"; sp_dir = Low; sp_warn = 0.95; sp_crit = 0.90 };
  ]

let score spec v =
  match spec.sp_dir with
  | High -> if v >= spec.sp_crit then Crit else if v >= spec.sp_warn then Warn else Ok
  | Low -> if v <= spec.sp_crit then Crit else if v <= spec.sp_warn then Warn else Ok

(* The EWMA smoothing factor, and the deviation from the baseline that
   counts as a regression. *)
let smoothing = 0.3
let tolerance = 0.1

type tracker = {
  track : Trace.track option;
  baselines : (string, float) Hashtbl.t;
  mutable prev : Metrics.snapshot option;
  mutable windows_rev : window_report list;
  mutable n : int;
}

let create ?track () =
  {
    track;
    baselines = Hashtbl.create 8;
    prev = None;
    windows_rev = [];
    n = 0;
  }

(* Per-window counter delta; counters are monotonic so a missing previous
   entry deltas from zero. *)
let delta t name snap =
  let cur = Option.value ~default:0 (Metrics.find_counter snap name) in
  let prev =
    match t.prev with
    | None -> 0
    | Some p -> Option.value ~default:0 (Metrics.find_counter p name)
  in
  cur - prev

let ratio num den =
  if den <= 0 then None else Some (float_of_int num /. float_of_int den)

let detail num den = Printf.sprintf "%d/%d" num den

(* Indicator values for this window, in [specs] order. *)
let values t ~overlap snap =
  let d = delta t in
  let dropped = d "collector.dropped-blobs" snap
  and batches = d "collector.batches" snap in
  let p_ranges = d "probe-corr.ranges" snap
  and p_miss = d "probe-corr.ranges-unmatched" snap in
  let w_addrs = d "dwarf-corr.addrs" snap
  and w_miss = d "dwarf-corr.addrs-unmapped" snap in
  let hit_den = p_ranges + w_addrs in
  let hit_num = hit_den - p_miss - w_miss in
  let inferred = d "ctx.inferred-frames" snap and samples = d "ctx.samples" snap in
  let recovered = d "stale.counts-recovered" snap
  and lost = d "stale.counts-dropped" snap in
  [
    (ratio dropped batches, detail dropped batches);
    (ratio hit_num hit_den, detail hit_num hit_den);
    (ratio inferred samples, detail inferred samples);
    (ratio recovered (recovered + lost), detail recovered (recovered + lost));
    ( overlap,
      (match overlap with
      | None -> "no previous window"
      | Some _ -> "vs previous window") );
  ]

let observe ?overlap t snap =
  let index = t.n in
  let vals = values t ~overlap snap in
  let alerts = ref [] in
  let indicators =
    List.map2
      (fun spec (value, det) ->
        let level =
          match value with None -> Ok | Some v -> score spec v
        in
        (match value with
        | None -> ()
        | Some v -> (
            match Hashtbl.find_opt t.baselines spec.sp_name with
            | None -> Hashtbl.replace t.baselines spec.sp_name v
            | Some b ->
                let regressed =
                  match spec.sp_dir with
                  | High -> v -. b > tolerance
                  | Low -> b -. v > tolerance
                in
                let alerted = regressed && level <> Ok in
                if alerted then begin
                  let al =
                    {
                      al_window = index;
                      al_indicator = spec.sp_name;
                      al_level = level;
                      al_value = v;
                      al_baseline = b;
                    }
                  in
                  alerts := al :: !alerts;
                  Option.iter
                    (fun track ->
                      Trace.instant track
                        (Printf.sprintf "health.%s:%s" (level_name level)
                           spec.sp_name))
                    t.track
                end;
                (* An alert resets the baseline to the degraded value: a
                   plateau alerts once at the transition, not on every
                   window while the EWMA slowly catches up. *)
                Hashtbl.replace t.baselines spec.sp_name
                  (if alerted then v else b +. (smoothing *. (v -. b)))));
        { in_name = spec.sp_name; in_value = value; in_level = level; in_detail = det })
      specs vals
  in
  let wr =
    {
      wr_index = index;
      wr_indicators = indicators;
      wr_level =
        List.fold_left (fun acc i -> worst acc i.in_level) Ok indicators;
      wr_alerts = List.rev !alerts;
    }
  in
  t.prev <- Some snap;
  t.windows_rev <- wr :: t.windows_rev;
  t.n <- t.n + 1;
  wr

let report t =
  let windows = List.rev t.windows_rev in
  {
    hp_windows = windows;
    hp_alerts = List.concat_map (fun w -> w.wr_alerts) windows;
    hp_level = List.fold_left (fun acc w -> worst acc w.wr_level) Ok windows;
  }

(* --- rendering ------------------------------------------------------- *)

let value_json = function None -> Json.Null | Some v -> Json.Float v

let alert_json a =
  Json.Obj
    [
      ("window", Json.Int a.al_window);
      ("indicator", Json.String a.al_indicator);
      ("level", Json.String (level_name a.al_level));
      ("value", Json.Float a.al_value);
      ("baseline", Json.Float a.al_baseline);
    ]

let indicator_json i =
  Json.Obj
    [
      ("name", Json.String i.in_name);
      ("value", value_json i.in_value);
      ("level", Json.String (level_name i.in_level));
      ("detail", Json.String i.in_detail);
    ]

let window_json w =
  Json.Obj
    [
      ("index", Json.Int w.wr_index);
      ("level", Json.String (level_name w.wr_level));
      ("indicators", Json.List (List.map indicator_json w.wr_indicators));
      ("alerts", Json.List (List.map alert_json w.wr_alerts));
    ]

let report_to_json r =
  Json.Obj
    [
      ("level", Json.String (level_name r.hp_level));
      ("windows", Json.List (List.map window_json r.hp_windows));
      ("alerts", Json.List (List.map alert_json r.hp_alerts));
    ]

let report_to_text r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "health: %s (%d windows, %d alerts)\n"
       (level_name r.hp_level)
       (List.length r.hp_windows)
       (List.length r.hp_alerts));
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "window %d: %s\n" w.wr_index (level_name w.wr_level));
      List.iter
        (fun i ->
          Buffer.add_string buf
            (match i.in_value with
            | None ->
                Printf.sprintf "  %-20s %5s  -      (%s)\n" i.in_name
                  (level_name i.in_level) i.in_detail
            | Some v ->
                Printf.sprintf "  %-20s %5s  %.4f (%s)\n" i.in_name
                  (level_name i.in_level) v i.in_detail))
        w.wr_indicators)
    r.hp_windows;
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "alert: window %d %s %s value %.4f baseline %.4f\n"
           a.al_window (level_name a.al_level) a.al_indicator a.al_value
           a.al_baseline))
    r.hp_alerts;
  Buffer.contents buf
