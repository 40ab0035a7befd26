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

(* The profiling run streams every sample into the range aggregate, the
   tail-call table and a compact flat-int log, so peak live memory is the
   aggregate plus the log words. *)
let recorder ?obs ~missing bin =
  let agg = Pg.Ranges.create () in
  let log = Vm.Sample_log.create () in
  let mb = if missing then Some (Missing_frame.start ?obs (Pg.Bindex.create bin)) else None in
  let sink =
    {
      Vm.Machine.on_sample =
        (fun ~lbr ~lbr_len ~stack ~stack_len ->
          Pg.Ranges.feed agg ~lbr ~lbr_len;
          (match mb with Some mb -> Missing_frame.feed mb ~lbr ~lbr_len | None -> ());
          Vm.Sample_log.add log ~lbr ~lbr_len ~stack ~stack_len);
      on_labels = Vm.Sample_log.set_label log;
    }
  in
  let finish () =
    Vm.Sample_log.compact log;
    (agg, Option.map Missing_frame.finish mb, log)
  in
  (sink, finish)

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

let trim ~threshold trie =
  if Int64.compare threshold 0L > 0 then ignore (P.Ctx_profile.trim_cold trie ~threshold)

type input = Log of Vm.Sample_log.t | Shards of Par_corr.shard list

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

let run ?obs ~jobs ~missing_frames ~trim:threshold ?recorded ?(keep_shards = false)
    shape t input =
  let jobs = clamp ?obs jobs in
  (* A serial log is one shard: no trie merge and no second pass over it. *)
  let shards =
    match input with
    | Log log when jobs > 1 -> Par_corr.shards_of_log log
    | Log log -> [ [ log ] ]
    | Shards shards -> shards
  in
  let aggs, agg =
    match recorded with
    | Some (agg, _) -> ([], agg)
    | None ->
        let aggs = Par_corr.aggregates ?obs ~jobs shards in
        (* [Ranges.merge] never mutates its inputs, as tree_reduce may hand
           a node's operand to another node on the serial path. *)
        ( aggs,
          Option.value ~default:(Pg.Ranges.create ())
            (S.tree_reduce ?obs ~jobs Pg.Ranges.merge aggs) )
  in
  match shape with
  | Lines | Probes ->
      {
        profile = of_agg ?obs t shape agg;
        flat = None;
        stats = Par_corr.zero_stats;
        slices =
          (if keep_shards then S.map ?obs ~jobs (of_agg ?obs t shape) aggs
           else []);
      }
  | Ctx ->
      let missing =
        match recorded with
        | _ when not missing_frames -> None
        | Some (_, missing) -> missing
        | None -> Some (Par_corr.missing ?obs ~jobs t.index shards)
      in
      let parts =
        Par_corr.reconstructs ~name_of:(name_of t.sy) ?missing
          ~checksum_of:(checksum_of t.sy) ?obs ~jobs t.index shards
      in
      let trie, stats =
        match parts with
        | [ (trie, stats) ] when keep_shards ->
            (* Trimming must not reach a lone kept shard's trie. *)
            let copy = P.Ctx_profile.create () in
            P.Merge.ctx ~into:copy ~weight:1L trie;
            (copy, stats)
        | _ -> Par_corr.merge_tries ?obs ~jobs parts
      in
      trim ~threshold trie;
      {
        profile = P.Text_io.Ctx_prof trie;
        flat = Some (lazy (flat ?obs t agg));
        stats;
        slices =
          (if keep_shards then List.map (fun (trie, _) -> P.Text_io.Ctx_prof trie) parts
           else []);
      }
