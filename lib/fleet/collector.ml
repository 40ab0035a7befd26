module Vm = Csspgo_vm
module Obs = Csspgo_obs
module S = Csspgo_sched.Scheduler

type t = {
  c_shards : Instance.batch list ref array;  (** newest-first per shard *)
  c_lossy : bool;
  c_obs : Obs.Metrics.t;
  c_batches : Obs.Metrics.counter;
  c_bytes : Obs.Metrics.counter;
  c_samples : Obs.Metrics.counter;
  c_dropped : Obs.Metrics.counter;
}

let create ?(obs = Obs.Metrics.null) ?(lossy = false) ~shards () =
  if shards <= 0 then invalid_arg "Collector.create: shards must be positive";
  {
    c_shards = Array.init shards (fun _ -> ref []);
    c_lossy = lossy;
    c_obs = obs;
    c_batches = Obs.Metrics.counter obs "collector.batches";
    c_bytes = Obs.Metrics.counter obs "collector.bytes";
    c_samples = Obs.Metrics.counter obs "collector.samples";
    c_dropped = Obs.Metrics.counter obs "collector.dropped-blobs";
  }

let shards t = Array.length t.c_shards

let shard_of t instance = instance mod Array.length t.c_shards

let ingest t (b : Instance.batch) =
  let shard = t.c_shards.(shard_of t b.Instance.b_instance) in
  shard := b :: !shard;
  Obs.Metrics.incr t.c_batches;
  Obs.Metrics.bump t.c_bytes (String.length b.Instance.b_blob);
  Obs.Metrics.bump t.c_samples b.Instance.b_samples

type merged = {
  m_version : int;
  m_log : Vm.Sample_log.t;
  m_batches : int;
  m_samples : int;
  m_bytes : int;
}

type chunks = {
  k_version : int;
  k_chunks : Vm.Sample_log.t list;
  k_batches : int;
  k_samples : int;
  k_bytes : int;
}

(* A corrupt blob always lands in the [collector.dropped-blobs] counter;
   a lossy collector then skips it, a strict one (the default) raises as
   before. *)
let decode t (b : Instance.batch) =
  match Vm.Sample_log.decode_chunks b.Instance.b_blob with
  | Ok parts -> Some (b, parts)
  | Error e ->
      Obs.Metrics.incr t.c_dropped;
      if t.c_lossy then None
      else
        failwith
          (Printf.sprintf "collector: corrupt batch from instance %d seq %d: %s"
             b.Instance.b_instance b.Instance.b_seq
             (Csspgo_support.Wire.error_to_string e))

(* Gather every shard (emptied) in deterministic (version, instance, seq)
   order, parallel-decode each blob to its chunk list — no concatenation —
   and group by version. The shared front half of both drains. *)
let drain_decoded ~jobs t =
  let all =
    Array.fold_left (fun acc shard -> List.rev_append !shard acc) [] t.c_shards
  in
  Array.iter (fun shard -> shard := []) t.c_shards;
  let ordered =
    List.sort
      (fun (a : Instance.batch) (b : Instance.batch) ->
        match compare a.Instance.b_version b.Instance.b_version with
        | 0 -> (
            match compare a.Instance.b_instance b.Instance.b_instance with
            | 0 -> compare a.Instance.b_seq b.Instance.b_seq
            | c -> c)
        | c -> c)
      all
  in
  (* Blob decode is the parallel stage; the batch order is already fixed,
     so map's index-placement keeps (version, instance, seq) order. *)
  let decoded = List.filter_map Fun.id (S.map ~obs:t.c_obs ~jobs (decode t) ordered) in
  let by_version = Hashtbl.create 8 in
  List.iter
    (fun ((b : Instance.batch), parts) ->
      let v = b.Instance.b_version in
      let prev = try Hashtbl.find by_version v with Not_found -> [] in
      Hashtbl.replace by_version v ((b, parts) :: prev))
    decoded;
  Hashtbl.fold (fun v _ acc -> v :: acc) by_version []
  |> List.sort compare
  |> List.map (fun v -> (v, List.rev (Hashtbl.find by_version v)))

let batch_bytes batches =
  List.fold_left
    (fun acc ((b : Instance.batch), _) -> acc + String.length b.Instance.b_blob)
    0 batches

let drain ~jobs t =
  drain_decoded ~jobs t
  |> List.map (fun (v, batches) ->
         let log = Vm.Sample_log.concat (List.concat_map snd batches) in
         {
           m_version = v;
           m_log = log;
           m_batches = List.length batches;
           m_samples = Vm.Sample_log.n_samples log;
           m_bytes = batch_bytes batches;
         })

let drain_chunks ~jobs t =
  drain_decoded ~jobs t
  |> List.map (fun (v, batches) ->
         let parts = List.concat_map snd batches in
         {
           k_version = v;
           k_chunks = parts;
           k_batches = List.length batches;
           k_samples =
             List.fold_left (fun acc l -> acc + Vm.Sample_log.n_samples l) 0 parts;
           k_bytes = batch_bytes batches;
         })
