module Obs = Csspgo_obs

type 'a deque = { lock : Mutex.t; mutable items : 'a list }

let pop_front d =
  Mutex.lock d.lock;
  let r =
    match d.items with
    | [] -> None
    | x :: tl ->
        d.items <- tl;
        Some x
  in
  Mutex.unlock d.lock;
  r

(* Steal from the victim's back half — the classic heuristic: leave the
   owner the work it is about to touch. Deques here are a handful of plan
   indices long, so the O(n) list surgery is noise. *)
let steal_back d =
  Mutex.lock d.lock;
  let r =
    match List.rev d.items with
    | [] -> None
    | x :: rtl ->
        d.items <- List.rev rtl;
        Some x
  in
  Mutex.unlock d.lock;
  r

let map ?(obs = Obs.Metrics.null) ~jobs f xs =
  let c_tasks = Obs.Metrics.counter obs "sched.tasks" in
  let c_steals = Obs.Metrics.counter obs "sched.steals" in
  let g_depth = Obs.Metrics.gauge obs "sched.queue-depth" in
  let n = List.length xs in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then begin
    Obs.Metrics.observe_gauge g_depth n;
    List.map
      (fun x ->
        Obs.Metrics.incr c_tasks;
        f x)
      xs
  end
  else begin
    let inputs = Array.of_list xs in
    let results = Array.make n None in
    let deques = Array.init jobs (fun _ -> { lock = Mutex.create (); items = [] }) in
    Array.iteri (fun i _ -> deques.(i mod jobs).items <- i :: deques.(i mod jobs).items) inputs;
    Array.iter
      (fun d ->
        d.items <- List.rev d.items;
        Obs.Metrics.observe_gauge g_depth (List.length d.items))
      deques;
    let run_raw i =
      Obs.Metrics.incr c_tasks;
      results.(i) <-
        Some (match f inputs.(i) with v -> Ok v | exception e -> Error e)
    in
    let run tk i =
      match tk with
      | Some tk ->
          Obs.Trace.with_span tk (Printf.sprintf "task-%d" i) (fun () -> run_raw i)
      | None -> run_raw i
    in
    (* Per-domain scheduler tracks are inherently schedule-dependent, so
       they exist only on wall-clock traces; a deterministic (fixed-clock)
       trace carries per-plan tracks only. *)
    let domain_track wid =
      match Obs.Metrics.trace obs with
      | Some tr when not (Obs.Trace.deterministic tr) ->
          Some (Obs.Trace.track tr ~tid:(1000 + wid) ~name:(Printf.sprintf "domain-%d" wid))
      | _ -> None
    in
    let rec worker wid tk =
      match pop_front deques.(wid) with
      | Some i ->
          run tk i;
          worker wid tk
      | None ->
          let rec try_steal k =
            if k < jobs then
              match steal_back deques.((wid + k) mod jobs) with
              | Some i ->
                  Obs.Metrics.incr c_steals;
                  run tk i;
                  worker wid tk
              | None -> try_steal (k + 1)
          in
          try_steal 1
    in
    let domains =
      Array.init (jobs - 1) (fun k ->
          Domain.spawn (fun () ->
              let wid = k + 1 in
              worker wid (domain_track wid)))
    in
    worker 0 (domain_track 0);
    Array.iter Domain.join domains;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error e) -> raise e
         | None -> assert false)
  end

let rec tree_reduce ?obs ~jobs f xs =
  match xs with
  | [] -> None
  | [ x ] -> Some x
  | _ ->
      (* Pair up adjacent elements; an odd tail passes through untouched.
         Each round is one [map], so pair merges run in parallel while the
         tree shape (and thus the result) stays jobs-independent. *)
      let rec pairs = function
        | a :: b :: tl -> (a, Some b) :: pairs tl
        | [ a ] -> [ (a, None) ]
        | [] -> []
      in
      let merged =
        map ?obs ~jobs
          (function a, Some b -> f a b | a, None -> a)
          (pairs xs)
      in
      tree_reduce ?obs ~jobs f merged
