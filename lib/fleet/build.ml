module Ir = Csspgo_ir
module Frontend = Csspgo_frontend
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module P = Csspgo_profile
module Core = Csspgo_core
module D = Core.Driver

type shape = Core.Correlate.shape = Lines | Probes | Ctx

let shape_name = function Lines -> "lines" | Probes -> "probes" | Ctx -> "ctx"

let kind_of_shape = function
  | Lines -> P.Text_io.Line
  | Probes -> P.Text_io.Probe
  | Ctx -> P.Text_io.Ctx

type built = {
  vb_source : string;
  vb_bin : Cg.Mach.binary;
  vb_target : Ir.Program.t;
  vb_symbols : Core.Correlate.symbols;
}

let probed = function Lines -> false | Probes | Ctx -> true

let profiling_build ~(options : D.options) ~shape ~source =
  (* The stale-match target is the pre-optimization IR, so compile twice:
     once kept pristine (plus probes), once taken through the profiling
     pipeline to a binary. Probe ids and checksums are deterministic per
     source, so the two agree. *)
  let target = Frontend.Lower.compile source in
  if probed shape then Core.Pseudo_probe.insert target;
  let prog = Frontend.Lower.compile source in
  if probed shape then Core.Pseudo_probe.insert prog;
  Opt.Pass.optimize ~config:options.D.opt_profiling prog;
  let bin = Cg.Emit.emit ~options:options.D.emit_opts prog in
  { vb_source = source; vb_bin = bin; vb_target = target;
    vb_symbols = Core.Correlate.symbols target }

(* Every fleet correlation is one kernel run over a shard list, under the
   options' missing-frame and trim settings. *)
let run ?obs ?keep_shards ~jobs ~(options : D.options) ~shape b shards =
  let r =
    Core.Correlate.run ?obs ?keep_shards ~jobs
      ~missing_frames:options.D.use_missing_frame_inference
      ~trim:options.D.trim_threshold shape
      (Core.Correlate.target b.vb_symbols b.vb_bin)
      (Core.Correlate.Shards shards)
  in
  (r, (r.Core.Correlate.profile, Option.map Lazy.force r.Core.Correlate.flat))

(* The collector's reassembled log is one shard: the serial reference the
   sharded forms are held against. *)
let correlate ?obs ~options ~shape b log =
  snd (run ?obs ~jobs:1 ~options ~shape b [ [ log ] ])

(* The decoded chunk list is never concatenated: chunks group into shards
   ([Par_corr.plan], a pure function of the chunk list), so the result is
   byte-identical to [correlate] on the concatenated log at any [jobs]. *)
let correlate_chunks ?obs ?shard_target ~jobs ~options ~shape b chunks =
  snd
    (run ?obs ~jobs ~options ~shape b
       (Core.Par_corr.plan ?target:shard_target chunks))

(* --- label-sliced correlation ----------------------------------------- *)

type labeled = {
  lc_slices : P.Labels.t;
  lc_blend : P.Text_io.profile;
  lc_flat : P.Probe_profile.t option;
}

(* Label slices are a whole-sample partition of the log, grouped by request
   instead of by position, so they are the kernel's shards: the
   missing-frame table is built from all of them and shared by every
   slice, each slice keeps its own (untrimmed) profile, and the blend is
   the kernel's exact reduction — byte-identical to [correlate] on the
   same log, at any [jobs] (oracle family 10 and the @labels battery). *)
let correlate_labeled ?obs ?(jobs = 1) ~options ~shape b log =
  let slices = Vm.Sample_log.slice_by_label log in
  let r, (blend, flat) =
    run ?obs ~keep_shards:true ~jobs ~options ~shape b
      (List.map (fun (_, slog) -> [ slog ]) slices)
  in
  let slice (label, slog) profile =
    {
      P.Labels.sl_label = label;
      sl_weight = Int64.of_int (Vm.Sample_log.n_samples slog);
      sl_profile = profile;
    }
  in
  {
    lc_slices =
      P.Labels.make ~kind:(kind_of_shape shape)
        (List.map2 slice slices r.Core.Correlate.slices);
    lc_blend = blend;
    lc_flat = flat;
  }

let match_onto ?obs ~target p =
  let (p, _), rep = Core.Stale_match.route ?obs ~target (p, None) in
  (p, rep)
