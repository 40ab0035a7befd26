module Ir = Csspgo_ir
module Frontend = Csspgo_frontend
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module P = Csspgo_profile
module Pg = Csspgo_profgen
module Core = Csspgo_core
module D = Core.Driver

type shape = Lines | Probes | Ctx

let shape_name = function Lines -> "lines" | Probes -> "probes" | Ctx -> "ctx"

let kind_of_shape = function
  | Lines -> P.Text_io.Line
  | Probes -> P.Text_io.Probe
  | Ctx -> P.Text_io.Ctx

let shape_of_variant = function
  | D.Autofdo -> Some Lines
  | D.Csspgo_probe_only -> Some Probes
  | D.Csspgo_full -> Some Ctx
  | D.Nopgo | D.Instr_pgo -> None

let variant_of_shape = function
  | Lines -> D.Autofdo
  | Probes -> D.Csspgo_probe_only
  | Ctx -> D.Csspgo_full

type built = {
  vb_source : string;
  vb_bin : Cg.Mach.binary;
  vb_target : Ir.Program.t;
  vb_names : string Ir.Guid.Tbl.t;
  vb_checksums : int64 Ir.Guid.Tbl.t;
}

let probed = function Lines -> false | Probes | Ctx -> true

let profiling_build ~(options : D.options) ~shape ~source =
  (* The stale-match target is the pre-optimization IR, so compile twice:
     once kept pristine (plus probes), once taken through the profiling
     pipeline to a binary. Probe ids and checksums are deterministic per
     source, so the two agree. *)
  let target = Frontend.Lower.compile source in
  if probed shape then Core.Pseudo_probe.insert target;
  let names = Ir.Guid.Tbl.create 64 in
  let checksums = Ir.Guid.Tbl.create 64 in
  Ir.Program.iter_funcs
    (fun f ->
      Ir.Guid.Tbl.replace names f.Ir.Func.guid f.Ir.Func.name;
      Ir.Guid.Tbl.replace checksums f.Ir.Func.guid f.Ir.Func.checksum)
    target;
  let prog = Frontend.Lower.compile source in
  if probed shape then Core.Pseudo_probe.insert prog;
  Opt.Pass.optimize ~config:options.D.opt_profiling prog;
  let bin = Cg.Emit.emit ~options:options.D.emit_opts prog in
  { vb_source = source; vb_bin = bin; vb_target = target; vb_names = names;
    vb_checksums = checksums }

let correlate ?obs ~(options : D.options) ~shape b log =
  let name_of g = Ir.Guid.Tbl.find_opt b.vb_names g in
  let checksum_of g =
    Option.value (Ir.Guid.Tbl.find_opt b.vb_checksums g) ~default:0L
  in
  let index = Pg.Bindex.create b.vb_bin in
  (* The plan pipeline feeds ranges and the tail-call table online during
     the profiling run; a collector only has the log, so replay it to
     rebuild both before correlation proper. *)
  let agg = Pg.Ranges.create () in
  let mb =
    if shape = Ctx && options.D.use_missing_frame_inference then
      Some (Core.Missing_frame.start ?obs (Pg.Bindex.create b.vb_bin))
    else None
  in
  Vm.Sample_log.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
      Pg.Ranges.feed agg ~lbr ~lbr_len;
      match mb with
      | Some mb -> Core.Missing_frame.feed mb ~lbr ~lbr_len
      | None -> ());
  match shape with
  | Lines ->
      let lp = Pg.Dwarf_corr.correlate_agg ~name_of ~index ?obs b.vb_bin agg in
      (P.Text_io.Line_prof lp, None)
  | Probes ->
      let pp =
        Core.Probe_corr.correlate_agg ~name_of ~index ~checksum_of ?obs
          b.vb_bin agg
      in
      (P.Text_io.Probe_prof pp, None)
  | Ctx ->
      let missing = Option.map Core.Missing_frame.finish mb in
      let st =
        Core.Ctx_reconstruct.start ~name_of ?missing ~checksum_of ?obs index
      in
      Vm.Sample_log.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
          Core.Ctx_reconstruct.feed st ~lbr ~lbr_len ~stack ~stack_len);
      let trie, _stats = Core.Ctx_reconstruct.finish st in
      if Int64.compare options.D.trim_threshold 0L > 0 then
        ignore (P.Ctx_profile.trim_cold trie ~threshold:options.D.trim_threshold);
      let flat =
        Core.Probe_corr.correlate_agg ~name_of ~index ~checksum_of ?obs
          b.vb_bin agg
      in
      (P.Text_io.Ctx_prof trie, Some flat)

(* The sharded form of [correlate]: the log arrives as the collector's
   decoded chunk list and is never concatenated. Chunks group into shards
   ([Par_corr.plan], a pure function of the chunk list), per-shard
   streaming correlators run on up to [jobs] domains, and the reductions
   are exact (counter addition / edge-set union / Merge laws at equal
   weight), so the result is byte-identical to [correlate] on the
   concatenated log at any [jobs]. DWARF line correlation is not additive
   (line counts max over instructions sharing a line), so only its
   aggregation parallelizes; [correlate_agg] then runs once on the merged
   aggregate — the exact serial computation. *)
let correlate_chunks ?obs ?metrics ?trace ?shard_target ~jobs
    ~(options : D.options) ~shape b chunks =
  let name_of g = Ir.Guid.Tbl.find_opt b.vb_names g in
  let checksum_of g =
    Option.value (Ir.Guid.Tbl.find_opt b.vb_checksums g) ~default:0L
  in
  let index = Pg.Bindex.create b.vb_bin in
  let shards = Core.Par_corr.plan ?target:shard_target chunks in
  let agg = Core.Par_corr.aggregate ?obs ?metrics ?trace ~jobs shards in
  match shape with
  | Lines ->
      let lp = Pg.Dwarf_corr.correlate_agg ~name_of ~index ?obs b.vb_bin agg in
      (P.Text_io.Line_prof lp, None)
  | Probes ->
      let pp =
        Core.Probe_corr.correlate_agg ~name_of ~index ~checksum_of ?obs
          b.vb_bin agg
      in
      (P.Text_io.Probe_prof pp, None)
  | Ctx ->
      let missing =
        if options.D.use_missing_frame_inference then
          Some (Core.Par_corr.missing ?obs ?metrics ?trace ~jobs index shards)
        else None
      in
      let trie, _stats =
        Core.Par_corr.reconstruct ~name_of ?missing ~checksum_of ?obs ?metrics
          ?trace ~jobs index shards
      in
      if Int64.compare options.D.trim_threshold 0L > 0 then
        ignore (P.Ctx_profile.trim_cold trie ~threshold:options.D.trim_threshold);
      let flat =
        Core.Probe_corr.correlate_agg ~name_of ~index ~checksum_of ?obs
          b.vb_bin agg
      in
      (P.Text_io.Ctx_prof trie, Some flat)

(* --- label-sliced correlation ----------------------------------------- *)

module Sched = Csspgo_sched.Scheduler
module Label_set = Csspgo_support.Label_set

type labeled = {
  lc_slices : P.Labels.t;
  lc_blend : P.Text_io.profile;
  lc_flat : P.Probe_profile.t option;
}

(* Slice a labeled log by label set and correlate every slice, plus the
   blend of the whole stream. Correctness leans on the same partition
   algebra as [Par_corr] — label slices are a whole-sample partition of
   the log, just grouped by request instead of by position:

   - the missing-frame table is built from the FULL log and shared by
     every slice (path uniqueness needs the complete edge set; a slice
     correlated against only its own edges could resolve gaps
     differently);
   - per-slice range aggregation sums to the full-log aggregate (counter
     addition), so the line and probe blends correlate the merged
     aggregate once — for lines this is mandatory, since per-line counts
     max over instructions and are not additive at profile level;
   - per-slice context tries (attribution is per-sample given the shared
     table) merge at weight 1 into exactly the serial trie; slices stay
     untrimmed — trimming is a global-heat decision — and only the blend
     trims, at [options.trim_threshold].

   The blend is therefore byte-identical to [correlate] on the same log,
   at any [jobs] — oracle family 10 and the @labels battery hold this. *)
let correlate_labeled ?obs ?(jobs = 1) ~(options : D.options) ~shape b log =
  let name_of g = Ir.Guid.Tbl.find_opt b.vb_names g in
  let checksum_of g =
    Option.value (Ir.Guid.Tbl.find_opt b.vb_checksums g) ~default:0L
  in
  let index = Pg.Bindex.create b.vb_bin in
  let agg_of l =
    let agg = Pg.Ranges.create () in
    Vm.Sample_log.iter l (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
        Pg.Ranges.feed agg ~lbr ~lbr_len);
    agg
  in
  let missing =
    if shape = Ctx && options.D.use_missing_frame_inference then begin
      let mb = Core.Missing_frame.start ?obs (Pg.Bindex.create b.vb_bin) in
      Vm.Sample_log.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
          Core.Missing_frame.feed mb ~lbr ~lbr_len);
      Some (Core.Missing_frame.finish mb)
    end
    else None
  in
  let sliced =
    Sched.map ~jobs
      (fun (label, slog) ->
        let agg = agg_of slog in
        let profile =
          match shape with
          | Lines ->
              P.Text_io.Line_prof
                (Pg.Dwarf_corr.correlate_agg ~name_of ~index ?obs b.vb_bin agg)
          | Probes ->
              P.Text_io.Probe_prof
                (Core.Probe_corr.correlate_agg ~name_of ~index ~checksum_of ?obs
                   b.vb_bin agg)
          | Ctx ->
              let st =
                Core.Ctx_reconstruct.start ~name_of ?missing ~checksum_of ?obs
                  index
              in
              Vm.Sample_log.iter slog (fun ~lbr ~lbr_len ~stack ~stack_len ->
                  Core.Ctx_reconstruct.feed st ~lbr ~lbr_len ~stack ~stack_len);
              let trie, _stats = Core.Ctx_reconstruct.finish st in
              P.Text_io.Ctx_prof trie
        in
        ( {
            P.Labels.sl_label = label;
            sl_weight = Int64.of_int (Vm.Sample_log.n_samples slog);
            sl_profile = profile;
          },
          agg ))
      (Vm.Sample_log.slice_by_label log)
  in
  let per_slice, aggs = List.split sliced in
  let full_agg = List.fold_left Pg.Ranges.merge (Pg.Ranges.create ()) aggs in
  let blend, flat =
    match shape with
    | Lines ->
        ( P.Text_io.Line_prof
            (Pg.Dwarf_corr.correlate_agg ~name_of ~index ?obs b.vb_bin full_agg),
          None )
    | Probes ->
        ( P.Text_io.Probe_prof
            (Core.Probe_corr.correlate_agg ~name_of ~index ~checksum_of ?obs
               b.vb_bin full_agg),
          None )
    | Ctx ->
        let trie = P.Ctx_profile.create () in
        List.iter
          (fun s ->
            match s.P.Labels.sl_profile with
            | P.Text_io.Ctx_prof t -> P.Merge.ctx ~into:trie ~weight:1L t
            | _ -> ())
          per_slice;
        if Int64.compare options.D.trim_threshold 0L > 0 then
          ignore (P.Ctx_profile.trim_cold trie ~threshold:options.D.trim_threshold);
        ( P.Text_io.Ctx_prof trie,
          Some
            (Core.Probe_corr.correlate_agg ~name_of ~index ~checksum_of ?obs
               b.vb_bin full_agg) )
  in
  {
    lc_slices = P.Labels.make ~kind:(kind_of_shape shape) per_slice;
    lc_blend = blend;
    lc_flat = flat;
  }

let match_onto ?obs ~target p =
  match p with
  | P.Text_io.Line_prof lp ->
      let lp', rep = Core.Stale_match.match_line ?obs ~target lp in
      (P.Text_io.Line_prof lp', rep)
  | P.Text_io.Probe_prof pp ->
      let pp', rep = Core.Stale_match.match_probe ?obs ~target pp in
      (P.Text_io.Probe_prof pp', rep)
  | P.Text_io.Ctx_prof trie ->
      let trie', rep = Core.Stale_match.match_ctx ?obs ~target trie in
      (P.Text_io.Ctx_prof trie', rep)
