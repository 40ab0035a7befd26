let metric_name name =
  "csspgo_"
  ^ String.map
      (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c | _ -> '_')
      name

let add_family buf name kind = Printf.bprintf buf "# TYPE %s %s\n" name kind

let snapshot (snap : Metrics.snapshot) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let m = metric_name name in
      add_family buf m "counter";
      Printf.bprintf buf "%s_total %d\n" m v)
    snap.Metrics.s_counters;
  List.iter
    (fun (name, v) ->
      let m = metric_name name in
      add_family buf m "gauge";
      Printf.bprintf buf "%s %d\n" m v)
    snap.Metrics.s_gauges;
  List.iter
    (fun (name, (h : Metrics.hist_summary)) ->
      let m = metric_name name in
      add_family buf m "histogram";
      (* Cumulative counts at each bucket's inclusive upper bound. A log2
         bucket k >= 1 holds [2^(k-1), 2^k), so its bound is 2^k - 1;
         bucket 0 holds v <= 0. *)
      let cum = ref 0 in
      List.iter
        (fun (b, n) ->
          cum := !cum + n;
          let le =
            if b = 0 then "0"
            else if b >= 62 then "+Inf"
            else string_of_int ((1 lsl b) - 1)
          in
          if le <> "+Inf" then
            Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" m le !cum)
        h.Metrics.h_nonzero;
      Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" m h.Metrics.h_count;
      Printf.bprintf buf "%s_sum %d\n" m h.Metrics.h_sum;
      Printf.bprintf buf "%s_count %d\n" m h.Metrics.h_count)
    snap.Metrics.s_histograms;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let timestamp us = Printf.sprintf "%.6f" (Int64.to_float us /. 1e6)

let series s =
  let ws = Series.windows s in
  (* Re-accumulate per-window deltas into cumulative counter samples and
     collect gauge readings, keyed by name so families group together. *)
  let counters = Hashtbl.create 32 and gauges = Hashtbl.create 8 in
  let totals = Hashtbl.create 32 in
  let names = ref [] in
  let push tbl name sample =
    (if not (Hashtbl.mem counters name || Hashtbl.mem gauges name) then
       names := name :: !names);
    let prev = try Hashtbl.find tbl name with Not_found -> [] in
    Hashtbl.replace tbl name (sample :: prev)
  in
  List.iter
    (fun (w : Series.window) ->
      List.iter
        (fun (name, d) ->
          let cum = (try Hashtbl.find totals name with Not_found -> 0) + d in
          Hashtbl.replace totals name cum;
          push counters name (w.Series.w_at_us, cum))
        w.Series.w_counters;
      List.iter
        (fun (name, v) -> push gauges name (w.Series.w_at_us, v))
        w.Series.w_gauges)
    ws;
  let buf = Buffer.create 1024 in
  List.iter
    (fun name ->
      let m = metric_name name in
      match Hashtbl.find_opt counters name with
      | Some samples ->
          add_family buf m "counter";
          List.iter
            (fun (at, v) ->
              Printf.bprintf buf "%s_total %d %s\n" m v (timestamp at))
            (List.rev samples)
      | None ->
          let samples = Hashtbl.find gauges name in
          add_family buf m "gauge";
          List.iter
            (fun (at, v) -> Printf.bprintf buf "%s %d %s\n" m v (timestamp at))
            (List.rev samples))
    (List.sort compare !names);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf
