module Ir = Csspgo_ir
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module P = Csspgo_profile
module Pg = Csspgo_profgen
module Obs = Csspgo_obs
module S = Csspgo_sched.Scheduler

type shape = Lines | Probes | Ctx

type symbols = {
  names : string Ir.Guid.Tbl.t;
  checksums : int64 Ir.Guid.Tbl.t;
}

let symbols prog =
  let names = Ir.Guid.Tbl.create 64 and checksums = Ir.Guid.Tbl.create 64 in
  Ir.Program.iter_funcs
    (fun f ->
      Ir.Guid.Tbl.replace names f.Ir.Func.guid f.Ir.Func.name;
      Ir.Guid.Tbl.replace checksums f.Ir.Func.guid f.Ir.Func.checksum)
    prog;
  { names; checksums }

let name_of sy g = Ir.Guid.Tbl.find_opt sy.names g
let checksum_of sy g = Option.value (Ir.Guid.Tbl.find_opt sy.checksums g) ~default:0L

type target = { bin : Cg.Mach.binary; index : Pg.Bindex.t; sy : symbols }

let target sy bin = { bin; index = Pg.Bindex.create bin; sy }

let flat ?obs t agg =
  Probe_corr.correlate_agg ~name_of:(name_of t.sy) ~index:t.index
    ~checksum_of:(checksum_of t.sy) ?obs t.bin agg

let of_agg ?obs t shape agg =
  match shape with
  | Lines ->
      P.Text_io.Line_prof
        (Pg.Dwarf_corr.correlate_agg ~name_of:(name_of t.sy) ~index:t.index ?obs t.bin agg)
  | Probes | Ctx -> P.Text_io.Probe_prof (flat ?obs t agg)

(* --- shards and their exact replay ------------------------------------ *)

type shard = Vm.Sample_log.t list

(* Group decoded chunks (which can be tiny — one per shipped fleet batch)
   into shards of at least [target] samples. The grouping is a pure
   function of the chunk list, never of a job count; and since every
   replay below is exact under *any* whole-sample partition, the
   partition choice can only affect wall-clock, not one output byte. *)
let plan ?(target = Vm.Sample_log.chunk_samples) chunks =
  if target <= 0 then invalid_arg "Correlate.plan: target must be positive";
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

(* Every replay that walks samples counts its shards. *)
let observe ?(obs = Obs.Metrics.null) shards =
  bump obs "parcorr.shards" (List.length shards);
  bump obs "parcorr.samples"
    (List.fold_left
       (fun a shard -> List.fold_left (fun a log -> a + Vm.Sample_log.n_samples log) a shard)
       0 shards)

(* A shard replays chunk by chunk; chunks are never copied or
   concatenated. *)
let iter_shard shard f = List.iter (fun log -> Vm.Sample_log.iter log f) shard

let aggregate ?obs ~jobs shards =
  observe ?obs shards;
  let aggs =
    S.map ?obs ~jobs
      (fun shard ->
        let agg = Pg.Ranges.create () in
        iter_shard shard (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
            Pg.Ranges.feed agg ~lbr ~lbr_len);
        agg)
      shards
  in
  (* [Ranges.merge] never mutates its inputs, as tree_reduce may hand a
     node's operand to another node on the serial path. *)
  ( aggs,
    Option.value ~default:(Pg.Ranges.create ())
      (S.tree_reduce ?obs ~jobs Pg.Ranges.merge aggs) )

let missing_of ?obs ~jobs index shards =
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
    | None -> Missing_frame.finish (Missing_frame.start ~obs:Obs.Metrics.null index)
  in
  bump (Option.value obs ~default:Obs.Metrics.null) "missing-frame.edges"
    (Missing_frame.n_edges t);
  t

let zero_stats =
  {
    Ctx_reconstruct.st_samples = 0;
    st_dropped_misaligned = 0;
    st_gaps_resolved = 0;
    st_gaps_failed = 0;
  }

let add_stats (a : Ctx_reconstruct.stats) (b : Ctx_reconstruct.stats) =
  {
    Ctx_reconstruct.st_samples = a.st_samples + b.st_samples;
    st_dropped_misaligned = a.st_dropped_misaligned + b.st_dropped_misaligned;
    st_gaps_resolved = a.st_gaps_resolved + b.st_gaps_resolved;
    st_gaps_failed = a.st_gaps_failed + b.st_gaps_failed;
  }

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

type input = Log of Vm.Sample_log.t | Shards of shard list

type result = {
  profile : P.Text_io.profile;
  flat : P.Probe_profile.t Lazy.t option;
  stats : Ctx_reconstruct.stats;
  slices : P.Text_io.profile list;
}

(* More domains than cores only adds domain overhead; the output is the
   same at any job count. *)
let clamp ?(obs = Obs.Metrics.null) jobs =
  let cores = Domain.recommended_domain_count () in
  if jobs > cores then Obs.Metrics.incr (Obs.Metrics.counter obs "parcorr.jobs-clamped");
  min jobs cores

let run ?obs ~jobs ~missing_frames ~trim:threshold ?(keep_shards = false) shape t input =
  let jobs = clamp ?obs jobs in
  (* A serial log is one shard: no trie merge and no second pass over it. *)
  let shards =
    match input with
    | Log log when jobs > 1 -> List.map (fun l -> [ l ]) (Vm.Sample_log.split log)
    | Log log -> [ [ log ] ]
    | Shards shards -> shards
  in
  let aggs, agg = aggregate ?obs ~jobs shards in
  match shape with
  | Lines | Probes ->
      {
        profile = of_agg ?obs t shape agg;
        flat = None;
        stats = zero_stats;
        slices =
          (if keep_shards then S.map ?obs ~jobs (of_agg ?obs t shape) aggs
           else []);
      }
  | Ctx ->
      let missing =
        if missing_frames then Some (missing_of ?obs ~jobs t.index shards) else None
      in
      (* The complete missing-frame table is shared by every shard (path
         uniqueness needs the whole edge set), and attribution is
         per-sample given that table, so shard tries partition the serial
         trie's counts exactly. Per-shard flushes of the [ctx.*] counters
         sum to the serial totals. *)
      observe ?obs shards;
      let name_of = Some (name_of t.sy) and checksum_of = checksum_of t.sy in
      let parts =
        S.map ?obs ~jobs
          (fun shard ->
            let st = Ctx_reconstruct.start ?name_of ?missing ~checksum_of ?obs t.index in
            iter_shard shard (fun ~lbr ~lbr_len ~stack ~stack_len ->
                Ctx_reconstruct.feed st ~lbr ~lbr_len ~stack ~stack_len);
            Ctx_reconstruct.finish st)
          shards
      in
      let trie, stats =
        match parts with
        | [ (trie, stats) ] when keep_shards ->
            (* Trimming must not reach a lone kept shard's trie. *)
            let copy = P.Ctx_profile.create () in
            P.Merge.ctx ~into:copy ~weight:1L trie;
            (copy, stats)
        | _ -> merge_tries ?obs ~jobs parts
      in
      if Int64.compare threshold 0L > 0 then
        ignore (P.Ctx_profile.trim_cold trie ~threshold);
      {
        profile = P.Text_io.Ctx_prof trie;
        flat = Some (lazy (flat ?obs t agg));
        stats;
        slices =
          (if keep_shards then List.map (fun (trie, _) -> P.Text_io.Ctx_prof trie) parts
           else []);
      }
