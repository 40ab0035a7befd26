module S = Csspgo_sched.Scheduler
module Vm = Csspgo_vm
module Pg = Csspgo_profgen
module P = Csspgo_profile
module Obs = Csspgo_obs

type shard = Vm.Sample_log.t list

let shard_samples shard =
  List.fold_left (fun acc log -> acc + Vm.Sample_log.n_samples log) 0 shard

let iter_shard shard f = List.iter (fun log -> Vm.Sample_log.iter log f) shard

let shards_of_log ?chunk log =
  List.map (fun l -> [ l ]) (Vm.Sample_log.split ?chunk log)

(* Group decoded chunks (which can be tiny — one per shipped fleet batch)
   into shards of at least [target] samples. The grouping is a pure
   function of the chunk list, never of a job count; and since every
   entry point below is exact under *any* whole-sample partition, the
   partition choice can only affect wall-clock, not one output byte. *)
let plan ?(target = Vm.Sample_log.chunk_samples) chunks =
  if target <= 0 then invalid_arg "Par_corr.plan: target must be positive";
  let flush cur acc = match cur with [] -> acc | _ -> List.rev cur :: acc in
  let rec go cur n acc = function
    | [] -> List.rev (flush cur acc)
    | c :: tl ->
        let cn = Vm.Sample_log.n_samples c in
        if cn = 0 then go cur n acc tl
        else if n + cn >= target then go [] 0 (flush (c :: cur) acc) tl
        else go (c :: cur) (n + cn) acc tl
  in
  go [] 0 [] chunks

let bump obs name v = Obs.Metrics.bump (Obs.Metrics.counter obs name) v

let observe ?(obs = Obs.Metrics.null) shards =
  bump obs "parcorr.shards" (List.length shards);
  bump obs "parcorr.samples" (List.fold_left (fun a s -> a + shard_samples s) 0 shards)

(* --- range/branch aggregation ---------------------------------------- *)

let aggregates ?obs ~jobs shards =
  observe ?obs shards;
  S.map ?obs ~jobs
    (fun shard ->
      let agg = Pg.Ranges.create () in
      iter_shard shard (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
          Pg.Ranges.feed agg ~lbr ~lbr_len);
      agg)
    shards

(* --- tail-call edge table --------------------------------------------- *)

let missing ?obs ~jobs index shards =
  let tables =
    S.map ?obs ~jobs
      (fun shard ->
        (* Per-shard builders run on a null registry: each shard counts
           the edges *it* first saw, and duplicates across shards would
           overreport against the serial run. The union's edge count is
           the serial count, credited once below. *)
        let mb = Missing_frame.start ~obs:Obs.Metrics.null index in
        iter_shard shard (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
            Missing_frame.feed mb ~lbr ~lbr_len);
        Missing_frame.finish mb)
      shards
  in
  let t =
    match S.tree_reduce ?obs ~jobs Missing_frame.union tables with
    | Some t -> t
    | None ->
        Missing_frame.finish (Missing_frame.start ~obs:Obs.Metrics.null index)
  in
  bump (Option.value obs ~default:Obs.Metrics.null) "missing-frame.edges"
    (Missing_frame.n_edges t);
  t

(* --- context reconstruction ------------------------------------------- *)

let zero_stats =
  {
    Ctx_reconstruct.st_samples = 0;
    st_dropped_misaligned = 0;
    st_gaps_resolved = 0;
    st_gaps_failed = 0;
  }

let add_stats a b =
  {
    Ctx_reconstruct.st_samples =
      a.Ctx_reconstruct.st_samples + b.Ctx_reconstruct.st_samples;
    st_dropped_misaligned =
      a.Ctx_reconstruct.st_dropped_misaligned + b.Ctx_reconstruct.st_dropped_misaligned;
    st_gaps_resolved =
      a.Ctx_reconstruct.st_gaps_resolved + b.Ctx_reconstruct.st_gaps_resolved;
    st_gaps_failed =
      a.Ctx_reconstruct.st_gaps_failed + b.Ctx_reconstruct.st_gaps_failed;
  }

let reconstructs ?name_of ?missing ~checksum_of ?obs ~jobs index shards =
  observe ?obs shards;
  S.map ?obs ~jobs
    (fun shard ->
      (* The complete missing-frame table is shared by every shard (path
         uniqueness needs the whole edge set), and attribution is
         per-sample given that table, so shard tries partition the
         serial trie's counts exactly. [obs] is the sharded metrics
         registry: per-shard flushes sum to the serial totals. *)
      let st = Ctx_reconstruct.start ?name_of ?missing ~checksum_of ?obs index in
      iter_shard shard (fun ~lbr ~lbr_len ~stack ~stack_len ->
          Ctx_reconstruct.feed st ~lbr ~lbr_len ~stack ~stack_len);
      Ctx_reconstruct.finish st)
    shards

let merge_tries ?obs ~jobs parts =
  let merge (ta, sa) (tb, sb) =
    let trie = P.Ctx_profile.create () in
    P.Merge.ctx ~into:trie ~weight:1L ta;
    P.Merge.ctx ~into:trie ~weight:1L tb;
    (trie, add_stats sa sb)
  in
  match S.tree_reduce ?obs ~jobs merge parts with
  | Some r -> r
  | None -> (P.Ctx_profile.create (), zero_stats)

let reconstruct ?name_of ?missing ~checksum_of ?obs ~jobs index shards =
  merge_tries ?obs ~jobs
    (reconstructs ?name_of ?missing ~checksum_of ?obs ~jobs index shards)
