(* csspgo — command-line driver for the MiniC toolchain and PGO pipelines.

   Subcommands:
     compile  FILE     parse, optimize, emit; print binary statistics
     run      FILE     compile and execute main with integer arguments
     pgo      NAME     run PGO variant(s) end-to-end on a named workload
     stale    NAME     drift the source, stale-match, report recovery
     report   NAME     all-variant quality report (text or JSON)
     probes   FILE     show the pseudo-probe metadata of a probed build
     contexts NAME     print the reconstructed context trie for a workload
     fleet    NAME     continuous-profiling simulation: sharded fleet,
                       cross-version merge, release train
     fuzz              differential fuzzing campaign over random programs
     cache    DIR      inspect or clear an orchestrator artifact cache

   pgo and fuzz take -j (domains) and --cache-dir (artifact cache); both
   route through the Csspgo_orchestrator scheduler + cache. pgo and report
   also take --trace FILE (Chrome trace-event JSON; --fixed-clock makes it
   byte-reproducible across -j) and --metrics FILE (registry snapshot as
   JSON); fuzz takes --metrics FILE and reports progress on stderr. *)

module F = Csspgo_frontend
module Ir = Csspgo_ir
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module P = Csspgo_profile
module Core = Csspgo_core
module D = Core.Driver
module O = Csspgo_orchestrator
module Pg = Csspgo_profgen
module Fl = Csspgo_fleet
module W = Csspgo_workloads
module Obs = Csspgo_obs
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let compile_src ?(probes = false) ~opt src =
  let p = F.Lower.compile src in
  if probes then Core.Pseudo_probe.insert p;
  Ir.Verify.check_exn p;
  let config = match opt with 0 -> Opt.Config.o0 | _ -> Opt.Config.o2_nopgo in
  Opt.Pass.optimize ~config p;
  (p, Cg.Emit.emit ~options:Cg.Emit.default_options p)

(* --- compile ------------------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file")

let opt_arg =
  Arg.(value & opt int 2 & info [ "O" ] ~docv:"LEVEL" ~doc:"Optimization level (0 or 2)")

let probes_flag =
  Arg.(value & flag & info [ "probes" ] ~doc:"Insert pseudo-probes before optimizing")

let compile_cmd =
  let run file opt probes =
    let _, bin = compile_src ~probes ~opt (read_file file) in
    Printf.printf "text           %6d bytes\n" bin.Cg.Mach.text_size;
    Printf.printf "instructions   %6d\n" (Array.length bin.Cg.Mach.insts);
    Printf.printf "functions      %6d\n" (Array.length bin.Cg.Mach.funcs);
    Printf.printf "debug info     %6d bytes\n" bin.Cg.Mach.debug_size;
    Printf.printf "probe metadata %6d bytes (%d records)\n" bin.Cg.Mach.probe_meta_size
      (Array.length bin.Cg.Mach.probes)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a MiniC file and print binary statistics")
    Term.(const run $ file_arg $ opt_arg $ probes_flag)

(* --- run ----------------------------------------------------------- *)

let args_arg =
  Arg.(value & opt_all int64 [] & info [ "arg" ] ~docv:"N" ~doc:"Argument passed to main (repeatable)")

let run_cmd =
  let run file opt probes args =
    let _, bin = compile_src ~probes ~opt (read_file file) in
    let r = Vm.Machine.run ~pmu:None bin ~entry:"main" ~args in
    Printf.printf "result        %Ld\n" r.Vm.Machine.ret_value;
    Printf.printf "cycles        %Ld\n" r.Vm.Machine.cycles;
    Printf.printf "instructions  %Ld\n" r.Vm.Machine.instructions;
    Printf.printf "taken branches %Ld (mispredicted %Ld)\n" r.Vm.Machine.taken_branches
      r.Vm.Machine.mispredicts;
    Printf.printf "icache misses %Ld\n" r.Vm.Machine.icache_misses
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a MiniC file on the VM")
    Term.(const run $ file_arg $ opt_arg $ probes_flag $ args_arg)

(* --- pgo ----------------------------------------------------------- *)

let workload_arg =
  let names = List.map (fun w -> w.D.w_name) W.Suite.all in
  Arg.(
    required
    & pos 0 (some (enum (List.map (fun n -> (n, n)) names))) None
    & info [] ~docv:"WORKLOAD" ~doc:(Printf.sprintf "One of: %s" (String.concat ", " names)))

let variant_arg =
  let variants =
    [ ("nopgo", D.Nopgo); ("autofdo", D.Autofdo); ("probe-only", D.Csspgo_probe_only);
      ("csspgo", D.Csspgo_full); ("instr", D.Instr_pgo) ]
  in
  Arg.(value & opt (enum variants) D.Csspgo_full & info [ "variant" ] ~docv:"V"
         ~doc:"nopgo | autofdo | probe-only | csspgo | instr")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Execute over N domains (work-stealing). Where there is only one \
           unit of outer work, N moves inward: sharded parallel correlation \
           over the sample log's chunks, byte-identical to serial at any N")

let cache_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Content-addressed artifact cache directory (created if missing)")

let all_variants_flag =
  Arg.(
    value & flag
    & info [ "all" ]
        ~doc:"Run all five variants as one orchestrated matrix (honors -j)")

let cache_of_dir ?obs dirs = Option.map (fun dir -> O.Cache.create ?obs ~dir ()) dirs

(* --- observability plumbing ----------------------------------------- *)

let write_out path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace-event JSON of the run to $(docv) (Perfetto-loadable)")

let metrics_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write the metrics-registry snapshot as JSON to $(docv)")

let fixed_clock_arg =
  Arg.(
    value & flag
    & info [ "fixed-clock" ]
        ~doc:
          "Run the trace on the deterministic virtual clock: exported bytes are \
           identical for every -j level")

(* The command's one telemetry handle: live when [live] or when --trace
   asks for a trace, which rides on the registry. A trace without
   --metrics still runs on a live registry whose snapshot is not written. *)
let mk_obs ?(fixed = false) ?trace_file ~live () =
  match trace_file with
  | None when not live -> Obs.Metrics.null
  | _ ->
      let clock = if fixed then Obs.Clock.fixed () else Obs.Clock.wall () in
      let trace = Option.map (fun _ -> Obs.Trace.create ~clock ()) trace_file in
      Obs.Metrics.create ?trace ()

(* Both exporters self-check: the emitted JSON must parse back before it is
   written, so a malformed export fails loudly instead of landing on disk. *)
let export_trace obs path =
  match (Obs.Metrics.trace obs, path) with
  | Some tr, Some path ->
      let s = Obs.Trace.to_chrome_json tr in
      ignore (Obs.Json.parse_exn s);
      write_out path s;
      Printf.eprintf "[obs] trace: %d events -> %s\n%!" (Obs.Trace.n_events tr) path
  | _ -> ()

let export_metrics obs path =
  match path with
  | Some path ->
      let s = Obs.Json.to_string (Obs.Report.metrics_to_json (Obs.Metrics.snapshot obs)) in
      ignore (Obs.Json.parse_exn s);
      write_out path s;
      Printf.eprintf "[obs] metrics -> %s\n%!" path
  | _ -> ()

let print_cache_stats = function
  | None -> ()
  | Some c ->
      let s = O.Cache.stats c in
      Printf.printf "cache              %d hits, %d misses, %d stores, %d corrupt\n"
        s.O.Cache.hits s.O.Cache.misses s.O.Cache.stores s.O.Cache.corrupt

let print_outcome variant (o : D.outcome) =
  Printf.printf "variant            %s\n" (D.variant_name variant);
    Printf.printf "eval cycles        %Ld\n" o.D.o_eval.D.ev_cycles;
    Printf.printf "eval instructions  %Ld\n" o.D.o_eval.D.ev_instructions;
    Printf.printf "text size          %d bytes\n" o.D.o_text_size;
    Printf.printf "profiling cycles   %Ld\n" o.D.o_profiling_cycles;
    Printf.printf "profile size       %d bytes\n" o.D.o_profile_size;
    Printf.printf "stale functions    %d\n" (List.length o.D.o_stales);
    (match o.D.o_recon_stats with
    | Some s ->
        Printf.printf "samples            %d (%d dropped, %d gaps fixed, %d failed)\n"
          s.Core.Ctx_reconstruct.st_samples s.Core.Ctx_reconstruct.st_dropped_misaligned
          s.Core.Ctx_reconstruct.st_gaps_resolved s.Core.Ctx_reconstruct.st_gaps_failed
    | None -> ());
    if o.D.o_preinline_decisions <> [] then begin
      Printf.printf "pre-inliner decisions:\n";
      List.iter
        (fun (d : Core.Preinliner.decision) ->
          Printf.printf "  inline %-20s count=%-8Ld size=%dB depth=%d\n"
            d.Core.Preinliner.d_callee_name d.Core.Preinliner.d_count d.Core.Preinliner.d_size
            (List.length d.Core.Preinliner.d_context))
        o.D.o_preinline_decisions
    end;
    match o.D.o_stale_report with
    | Some r ->
        Printf.printf "stale matching (recovery %.4f):\n%s"
          (Core.Stale_match.recovery_rate r)
          (Core.Stale_match.report_to_string r)
    | None -> ()

let all_variants =
  [ D.Nopgo; D.Instr_pgo; D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full ]

let sampling_variants = [ D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full ]

let stale_seed_arg =
  Arg.(
    value & opt int64 1L
    & info [ "stale-seed" ] ~docv:"SEED" ~doc:"Seed for the source-drift edit script")

let stale_edits_arg =
  Arg.(
    value & opt int 0
    & info [ "stale-edits" ] ~docv:"N"
        ~doc:
          "Apply N seeded edits to the source after profiling: the profile is \
           stale-matched and the final build compiles the drifted version N+1 \
           (0 = off)")

(* With drift on, the sampling variants stale-match their build-N profile
   onto the drifted source; the profile-free / exact variants simply build
   version N+1 fresh, so every row evaluates the same final program. *)
let stale_plan ~seed ~edits v (w : D.workload) =
  if edits <= 0 then D.Plan.make ~variant:v w
  else
    let d = W.Drift.apply ~seed ~edits w.D.w_source in
    match v with
    | D.Autofdo | D.Csspgo_probe_only | D.Csspgo_full ->
        D.Plan.make_stale ~variant:v ~stale_source:d.W.Drift.dr_source w
    | D.Nopgo | D.Instr_pgo ->
        D.Plan.make ~variant:v { w with D.w_source = d.W.Drift.dr_source }

let pgo_cmd =
  let run name variant all jobs cache_dir trace_file metrics_file fixed_clock
      stale_seed stale_edits =
    let w = Option.get (W.Suite.find name) in
    let obs = mk_obs ~fixed:fixed_clock ?trace_file ~live:(metrics_file <> None) () in
    let cache = cache_of_dir ~obs cache_dir in
    let plan v = stale_plan ~seed:stale_seed ~edits:stale_edits v w in
    if all then begin
      let outs =
        O.Orchestrate.run_plans ?cache ~obs ~jobs (List.map plan all_variants)
      in
      Printf.printf "%-18s %12s %12s %10s %10s\n" "variant" "eval-cycles" "prof-cycles"
        "text-B" "profile-B";
      List.iter2
        (fun v (o : D.outcome) ->
          Printf.printf "%-18s %12Ld %12Ld %10d %10d\n" (D.variant_name v)
            o.D.o_eval.D.ev_cycles o.D.o_profiling_cycles o.D.o_text_size
            o.D.o_profile_size)
        all_variants outs
    end
    else begin
      (* The single-variant path rides the same run_plans wiring so --trace
         and --metrics observe it identically to --all. With one plan there
         is nothing to parallelize across, so -j moves inside the plan:
         sharded correlation over the sample log's chunks. *)
      let o =
        match
          O.Orchestrate.run_plans ?cache ~obs ~stage_jobs:jobs ~jobs:1 [ plan variant ]
        with
        | [ o ] -> o
        | _ -> assert false
      in
      print_outcome variant o
    end;
    print_cache_stats cache;
    export_trace obs trace_file;
    export_metrics obs metrics_file
  in
  Cmd.v
    (Cmd.info "pgo" ~doc:"Run PGO variant(s) end-to-end on a named workload")
    Term.(const run $ workload_arg $ variant_arg $ all_variants_flag $ jobs_arg
          $ cache_dir_arg $ trace_arg $ metrics_arg $ fixed_clock_arg
          $ stale_seed_arg $ stale_edits_arg)

(* --- stale ----------------------------------------------------------- *)

let stale_cmd =
  let variant_opt_arg =
    let variants =
      [ ("autofdo", D.Autofdo); ("probe-only", D.Csspgo_probe_only);
        ("csspgo", D.Csspgo_full) ]
    in
    Arg.(
      value & opt (some (enum variants)) None
      & info [ "variant" ] ~docv:"V"
          ~doc:"autofdo | probe-only | csspgo (default: all three)")
  in
  let run name variant seed edits jobs cache_dir metrics_file =
    let w = Option.get (W.Suite.find name) in
    let drift = W.Drift.apply ~seed ~edits w.D.w_source in
    let w_new = { w with D.w_source = drift.W.Drift.dr_source } in
    Printf.printf "workload           %s\n" w.D.w_name;
    Printf.printf "drift              seed %Ld, %d edits\n" seed
      (List.length drift.W.Drift.dr_edits);
    List.iter
      (fun e -> Printf.printf "  %s\n" (W.Drift.edit_to_string e))
      drift.W.Drift.dr_edits;
    let vs = match variant with Some v -> [ v ] | None -> sampling_variants in
    let obs = mk_obs ~live:(metrics_file <> None) () in
    let cache = cache_of_dir ~obs cache_dir in
    (* Per variant: the stale pipeline (profile on N, match + rebuild on N+1)
       and the fresh pipeline on N+1; one instrumentation ground truth on N+1
       anchors the block-overlap comparison. *)
    let plans =
      List.concat_map
        (fun v ->
          [
            D.Plan.make_stale ~variant:v ~stale_source:drift.W.Drift.dr_source w;
            D.Plan.make ~variant:v w_new;
          ])
        vs
      @ [ D.Plan.make ~variant:D.Instr_pgo w_new ]
    in
    let outs = Array.of_list (O.Orchestrate.run_plans ?cache ~obs ~jobs plans) in
    let truth = outs.(2 * List.length vs) in
    List.iteri
      (fun i v ->
        let st = outs.(2 * i) and fr = outs.((2 * i) + 1) in
        let r = Option.get st.D.o_stale_report in
        Printf.printf "== %s ==\n" (D.variant_name v);
        print_string (Core.Stale_match.report_to_string r);
        let rc =
          Core.Quality.recovery ~truth:truth.D.o_annotated ~fresh:fr.D.o_annotated
            st.D.o_annotated
        in
        Printf.printf "count recovery     %.4f\n" (Core.Stale_match.recovery_rate r);
        Printf.printf "block overlap      stale %.4f  fresh %.4f  ratio %.4f\n"
          rc.Core.Quality.rec_stale rc.Core.Quality.rec_fresh rc.Core.Quality.rec_ratio;
        Printf.printf "eval cycles        stale %Ld  fresh %Ld\n"
          st.D.o_eval.D.ev_cycles fr.D.o_eval.D.ev_cycles)
      vs;
    print_cache_stats cache;
    export_metrics obs metrics_file
  in
  Cmd.v
    (Cmd.info "stale"
       ~doc:
         "Drift a workload's source with a seeded edit script, stale-match the \
          build-N profile onto version N+1, and report recovery (verdicts, counts, \
          block overlap vs a fresh N+1 profile)")
    Term.(const run $ workload_arg $ variant_opt_arg $ stale_seed_arg
          $ stale_edits_arg $ jobs_arg $ cache_dir_arg $ metrics_arg)

(* --- report --------------------------------------------------------- *)

let report_cmd =
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout")
  in
  let run name json jobs cache_dir trace_file metrics_file fixed_clock =
    let w = Option.get (W.Suite.find name) in
    (* The report always runs with a live registry: its metrics section is
       the point. --metrics additionally dumps the same snapshot to a file. *)
    let obs = mk_obs ~fixed:fixed_clock ?trace_file ~live:true () in
    let cache = cache_of_dir ~obs cache_dir in
    let rows =
      O.Orchestrate.run_matrix ?cache ~obs ~jobs ~variants:all_variants ~workloads:[ w ] ()
    in
    let truth =
      List.find_map
        (fun (_, v, (o : D.outcome)) ->
          if v = D.Instr_pgo then Some o.D.o_annotated else None)
        rows
    in
    let row (_, v, (o : D.outcome)) =
      let overlap =
        (* No-PGO never annotates, so overlap is not applicable there. *)
        match (v, truth) with
        | D.Nopgo, _ | _, None -> None
        | _, Some truth -> Some (Core.Quality.block_overlap ~truth o.D.o_annotated)
      in
      {
        Obs.Report.vr_variant = D.variant_name v;
        vr_eval_cycles = o.D.o_eval.D.ev_cycles;
        vr_eval_instructions = o.D.o_eval.D.ev_instructions;
        vr_profiling_cycles = o.D.o_profiling_cycles;
        vr_text_size = o.D.o_text_size;
        vr_profile_size = o.D.o_profile_size;
        vr_overlap = overlap;
        vr_stale_funcs = List.length o.D.o_stales;
      }
    in
    let report =
      {
        Obs.Report.rp_workload = w.D.w_name;
        rp_rows = List.map row rows;
        rp_metrics = Obs.Metrics.snapshot obs;
      }
    in
    if json then begin
      let s = Obs.Json.to_string (Obs.Report.to_json report) in
      ignore (Obs.Json.parse_exn s);
      print_string s;
      print_newline ()
    end
    else print_string (Obs.Report.to_text report);
    export_trace obs trace_file;
    export_metrics obs metrics_file
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run every PGO variant on a workload and render the profile-quality report \
          (block overlap vs instrumentation truth, costs, pipeline telemetry)")
    Term.(const run $ workload_arg $ json_flag $ jobs_arg $ cache_dir_arg $ trace_arg
          $ metrics_arg $ fixed_clock_arg)

(* --- probes -------------------------------------------------------- *)

let probes_cmd =
  let run file =
    let _, bin = compile_src ~probes:true ~opt:2 (read_file file) in
    Array.iter
      (fun (pr : Cg.Mach.probe_rec) ->
        Printf.printf "0x%04x  %Lx #%d%s" pr.Cg.Mach.pr_addr pr.Cg.Mach.pr_func
          pr.Cg.Mach.pr_id
          (match pr.Cg.Mach.pr_kind with
          | Ir.Instr.Block_probe -> ""
          | Ir.Instr.Callsite_probe -> " (callsite)");
        List.iter
          (fun (cs : Ir.Dloc.callsite) ->
            Printf.printf " @ %Lx:%d" cs.Ir.Dloc.cs_func cs.Ir.Dloc.cs_probe)
          pr.Cg.Mach.pr_chain;
        print_newline ())
      bin.Cg.Mach.probes
  in
  Cmd.v
    (Cmd.info "probes" ~doc:"Show the pseudo-probe metadata of a probed -O2 build")
    Term.(const run $ file_arg)

(* --- contexts ------------------------------------------------------ *)

let contexts_cmd =
  let run name =
    let w = Option.get (W.Suite.find name) in
    let options = D.default_options in
    let b = Fl.Build.profiling_build ~options ~shape:Fl.Build.Ctx ~source:w.D.w_source in
    let r =
      Core.Correlate.run ~jobs:1 ~missing_frames:true ~trim:0L Core.Correlate.Ctx
        (Core.Correlate.target b.Fl.Build.vb_symbols b.Fl.Build.vb_bin)
        (Core.Correlate.Log (Fl.Build.record ~options b w))
    in
    let stats = r.Core.Correlate.stats and trie = r.Core.Correlate.profile in
    Printf.printf "# samples=%d dropped=%d gaps: %d fixed / %d failed\n"
      stats.Core.Ctx_reconstruct.st_samples stats.Core.Ctx_reconstruct.st_dropped_misaligned
      stats.Core.Ctx_reconstruct.st_gaps_resolved stats.Core.Ctx_reconstruct.st_gaps_failed;
    (* The text profile format round-trips through Csspgo_profile.Text_io. *)
    print_string (P.Text_io.to_string trie)
  in
  Cmd.v
    (Cmd.info "contexts" ~doc:"Print the reconstructed context trie of a workload")
    Term.(const run $ workload_arg)

(* --- convert / inspect ---------------------------------------------- *)

let profile_file_arg =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Profile (text or binary) or sample log")

(* Malformed input is a user error, not a crash: report and exit 1. *)
let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("csspgo: " ^ msg); exit 1) fmt

let load_profile path =
  let data = read_file path in
  match P.Io.read data with
  | Ok p -> p
  | Error msg -> die "%s: %s" path msg

let convert_cmd =
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout)")
  in
  let to_arg =
    Arg.(
      value
      & opt (some (enum [ ("text", `Text); ("binary", `Binary) ])) None
      & info [ "to" ] ~docv:"FORM"
          ~doc:"Target form: text | binary (default: the opposite of the input)")
  in
  let run file out target =
    let data = read_file file in
    let is_log = Vm.Sample_log.is_binary data || String.length data >= 9
                 && String.equal (String.sub data 0 9) "samplelog" in
    let input_binary = P.Binary_io.is_binary data || Vm.Sample_log.is_binary data in
    let target =
      match target with
      | Some t -> t
      | None -> if input_binary then `Text else `Binary
    in
    let converted =
      if is_log then begin
        let log =
          match
            (if Vm.Sample_log.is_binary data then Vm.Sample_log.decode data
             else Vm.Sample_log.of_text data)
          with
          | Ok log -> log
          | Error e -> die "%s: %s" file (Csspgo_support.Wire.error_to_string e)
        in
        match target with
        | `Text -> Vm.Sample_log.to_text log
        | `Binary -> Vm.Sample_log.encode log
      end
      else
        let p = load_profile file in
        match target with
        | `Text -> P.Text_io.to_string p
        | `Binary -> P.Binary_io.encode p
    in
    match out with None -> print_string converted | Some path -> write_out path converted
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert a profile or sample log between the canonical text form and the \
          digest-framed binary form (input format auto-detected)")
    Term.(const run $ profile_file_arg $ out_arg $ to_arg)

let inspect_cmd =
  let funcs_flag =
    Arg.(
      value & flag
      & info [ "funcs" ] ~doc:"Also list one fingerprint line per function")
  in
  let run file funcs =
    let data = read_file file in
    if Vm.Sample_log.is_binary data then begin
      (* decode_chunks validates every section; the envelope's version and
         raw sections come from one more unframe. *)
      let parts, version, sections =
        match
          ( Vm.Sample_log.decode_chunks data,
            Csspgo_support.Wire.unframe ~magic:Vm.Sample_log.magic ~max_version:max_int
              data )
        with
        | Ok parts, Ok (version, sections) -> (parts, version, sections)
        | Error e, _ | _, Error e -> die "%s: %s" file (Csspgo_support.Wire.error_to_string e)
      in
      let samples = List.fold_left (fun acc l -> acc + Vm.Sample_log.n_samples l) 0 parts in
      let words = List.fold_left (fun acc l -> acc + Vm.Sample_log.words l) 0 parts in
      (* v1 is the whole-log framing; v2 frames one self-delimited section
         per chunk so shards can decode and correlate without ever
         concatenating the log. *)
      Printf.printf "format      sample-log (binary, framing v%d)\n" version;
      Printf.printf "samples     %d\n" samples;
      Printf.printf "arena words %d\n" words;
      Printf.printf "chunks      %d\n" (List.length parts);
      let distinct =
        List.fold_left
          (fun acc l ->
            List.fold_left
              (fun acc ls ->
                if List.exists (Csspgo_support.Label_set.equal ls) acc then acc
                else ls :: acc)
              acc (Vm.Sample_log.labels l))
          [] parts
      in
      if List.exists Vm.Sample_log.is_labeled parts then
        Printf.printf "labels      %d distinct sets\n" (List.length distinct);
      (* The digest shown is recomputed from the payload — unframe already
         verified it against the trailer, so this line is what a
         corrupted-but-decodable section would contradict. *)
      let payload_bytes =
        List.fold_left (fun acc (_, payload) -> acc + String.length payload) 0 sections
      in
      Printf.printf "overhead    %d bytes of %d (envelope)\n"
        (String.length data - payload_bytes)
        (String.length data);
      (* v3 blobs carry one trailing label section alongside the record
         chunks; only the latter pair up with decoded parts. *)
      let chunk_sections, label_sections =
        List.partition (fun (tag, _) -> tag = Vm.Sample_log.tag_log) sections
      in
      List.iteri
        (fun i ((tag, payload), chunk) ->
          Printf.printf "chunk       %d: tag %d, %d samples, %d bytes, fnv %016Lx\n" i tag
            (Vm.Sample_log.n_samples chunk)
            (String.length payload)
            (Csspgo_support.Wire.section_digest ~tag payload))
        (List.combine chunk_sections parts);
      List.iter
        (fun (tag, payload) ->
          Printf.printf "labels      tag %d, %d distinct sets, %d bytes, fnv %016Lx\n" tag
            (List.length distinct) (String.length payload)
            (Csspgo_support.Wire.section_digest ~tag payload))
        label_sections
    end
    else begin
      let p = load_profile file in
      let kind, form =
        ( (match p with
          | P.Text_io.Probe_prof _ -> "probe"
          | P.Text_io.Ctx_prof _ -> "ctx"
          | P.Text_io.Line_prof _ -> "line"),
          if P.Binary_io.is_binary data then "binary" else "text" )
      in
      let fps = P.Fingerprint.per_func p in
      Printf.printf "format      %s profile (%s)\n" kind form;
      Printf.printf "size        %d bytes (text %d, binary %d)\n" (String.length data)
        (String.length (P.Text_io.to_string p))
        (String.length (P.Binary_io.encode p));
      Printf.printf "functions   %d\n" (List.length fps);
      Printf.printf "fingerprint %Lx\n" (P.Fingerprint.merged p);
      (if P.Binary_io.is_binary data then
         match
           Csspgo_support.Wire.unframe ~magic:P.Binary_io.magic
             ~max_version:max_int data
         with
         | Ok (_, sections) ->
             let payload_bytes =
               List.fold_left
                 (fun acc (_, payload) -> acc + String.length payload)
                 0 sections
             in
             Printf.printf "overhead    %d bytes of %d (envelope)\n"
               (String.length data - payload_bytes)
               (String.length data);
             List.iteri
               (fun i (tag, payload) ->
                 Printf.printf "section     %d: tag %d, %d bytes, fnv %016Lx\n"
                   i tag (String.length payload)
                   (Csspgo_support.Wire.section_digest ~tag payload))
               sections
         | Error e -> die "%s: %s" file (Csspgo_support.Wire.error_to_string e));
      if funcs then
        List.iter (fun (g, d) -> Printf.printf "  %Lx %Lx\n" g d) fps
    end
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Show a profile's shape, sizes and per-function fingerprints (or a sample \
          log's framing version and per-chunk record counts); accepts both text \
          and binary forms")
    Term.(const run $ profile_file_arg $ funcs_flag)

(* --- fleet ---------------------------------------------------------- *)

let fleet_cmd =
  let instances_arg =
    Arg.(
      value & opt int 8
      & info [ "instances" ] ~docv:"N"
          ~doc:"Total fleet instances, split evenly across in-flight versions")
  in
  let shards_arg =
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc:"Collector shards")
  in
  let duty_arg =
    Arg.(
      value & opt float 1.0
      & info [ "duty" ] ~docv:"P"
          ~doc:"Per-request sampling probability on each instance")
  in
  let versions_arg =
    Arg.(
      value & opt int 2
      & info [ "versions" ] ~docv:"K"
          ~doc:"Binary versions in flight per window (the canary plus K-1 draining)")
  in
  let generations_arg =
    Arg.(
      value & opt int 2
      & info [ "generations" ] ~docv:"G" ~doc:"Release-train length")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the train summary as JSON")
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Re-parse the emitted JSON and assert its schema invariants")
  in
  let health_flag =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Track one profile-health window per generation and print the \
             scored report after the train summary")
  in
  let run name instances shards duty versions generations jobs json check health =
    let w = Option.get (W.Suite.find name) in
    if versions < 1 then die "--versions must be at least 1";
    if generations < 1 then die "--generations must be at least 1";
    if instances < versions then die "--instances must be at least --versions";
    let cfg =
      {
        Fl.Train.default with
        Fl.Train.t_generations = generations;
        t_skew = versions - 1;
        t_cohort = max 1 (instances / versions);
        t_fleet =
          {
            Fl.Sim.default with
            Fl.Sim.f_shards = shards;
            f_duty = duty;
            f_jobs = jobs;
            (* Scale the stream to the cohort so every instance serves
               work (the suite workloads have short training input lists). *)
            f_request_copies = max 1 (instances / versions);
          };
      }
    in
    let tracker = if health then Some (Obs.Health.create ()) else None in
    let gens = Fl.Train.run ?health:tracker cfg w in
    let opt_float = function Some f -> Printf.sprintf "%.3f" f | None -> "-" in
    List.iter
      (fun (g : Fl.Train.generation) ->
        let fl = g.Fl.Train.g_fleet in
        Printf.printf
          "gen %d  speedup %.3f  overlap %s  carry-recovery %s  requests %d  \
           sampled %d  samples %d  batches %d  bytes %d\n"
          g.Fl.Train.g_id g.Fl.Train.g_speedup
          (opt_float g.Fl.Train.g_overlap)
          (opt_float
             (Option.map Core.Stale_match.recovery_rate g.Fl.Train.g_carry))
          fl.Fl.Sim.fs_requests fl.Fl.Sim.fs_sampled fl.Fl.Sim.fs_samples
          fl.Fl.Sim.fs_batches fl.Fl.Sim.fs_bytes)
      gens;
    let doc =
      Obs.Json.Obj
        [
          ("workload", Obs.Json.String w.D.w_name);
          ("instances", Obs.Json.Int instances);
          ("shards", Obs.Json.Int shards);
          ("duty", Obs.Json.Float duty);
          ("versions", Obs.Json.Int versions);
          ("generations", Obs.Json.Int generations);
          ( "train",
            Obs.Json.List
              (List.map
                 (fun (g : Fl.Train.generation) ->
                   let fl = g.Fl.Train.g_fleet in
                   Obs.Json.Obj
                     [
                       ("id", Obs.Json.Int g.Fl.Train.g_id);
                       ("speedup", Obs.Json.Float g.Fl.Train.g_speedup);
                       ( "overlap",
                         match g.Fl.Train.g_overlap with
                         | Some f -> Obs.Json.Float f
                         | None -> Obs.Json.Null );
                       ( "carry_recovery",
                         match g.Fl.Train.g_carry with
                         | Some r ->
                             Obs.Json.Float (Core.Stale_match.recovery_rate r)
                         | None -> Obs.Json.Null );
                       ("requests", Obs.Json.Int fl.Fl.Sim.fs_requests);
                       ("sampled", Obs.Json.Int fl.Fl.Sim.fs_sampled);
                       ("samples", Obs.Json.Int fl.Fl.Sim.fs_samples);
                       ("batches", Obs.Json.Int fl.Fl.Sim.fs_batches);
                       ("bytes", Obs.Json.Int fl.Fl.Sim.fs_bytes);
                     ])
                 gens) );
        ]
    in
    let text = Obs.Json.to_string doc in
    (match json with Some path -> write_out path text | None -> ());
    if check then begin
      (* Schema self-assertion: the emitted document must parse back and
         carry one well-formed record per generation. *)
      let doc' = Obs.Json.parse_exn text in
      let expect what = die "fleet --check: %s" what in
      let mem k d = match Obs.Json.member k d with
        | Some v -> v
        | None -> expect (Printf.sprintf "missing field %S" k)
      in
      (match mem "generations" doc' with
      | Obs.Json.Int g when g = generations -> ()
      | _ -> expect "generation count mismatch");
      let train =
        match Obs.Json.to_list (mem "train" doc') with
        | Some l -> l
        | None -> expect "train is not a list"
      in
      if List.length train <> generations then
        expect "train length differs from generation count";
      List.iteri
        (fun i g ->
          (match mem "id" g with
          | Obs.Json.Int id when id = i -> ()
          | _ -> expect "non-contiguous generation ids");
          (match mem "speedup" g with
          | Obs.Json.Float f when f > 0.0 -> ()
          | _ -> expect "speedup not a positive number");
          (match mem "overlap" g with
          | Obs.Json.Null -> ()
          | Obs.Json.Float f when f >= 0.0 && f <= 1.0 -> ()
          | _ -> expect "overlap outside [0, 1]");
          match mem "samples" g with
          | Obs.Json.Int n when n >= 0 -> ()
          | _ -> expect "samples not a non-negative integer")
        train;
      print_endline "fleet check ok"
    end;
    Option.iter
      (fun t -> print_string (Obs.Health.report_to_text (Obs.Health.report t)))
      tracker
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Simulate continuous profiling: a sharded fleet samples mixed binary \
          versions, profiles merge across versions and generations, and each \
          release rebuilds with the carried profile")
    Term.(
      const run $ workload_arg $ instances_arg $ shards_arg $ duty_arg
      $ versions_arg $ generations_arg $ jobs_arg $ json_arg $ check_flag
      $ health_flag)

(* --- health --------------------------------------------------------- *)

let health_cmd =
  let generations_arg =
    Arg.(
      value & opt int 3
      & info [ "generations" ] ~docv:"G"
          ~doc:"Release-train length (one health window per generation)")
  in
  let instances_arg =
    Arg.(
      value & opt int 4
      & info [ "instances" ] ~docv:"N"
          ~doc:"Total fleet instances, split across in-flight versions")
  in
  let versions_arg =
    Arg.(
      value & opt int 2
      & info [ "versions" ] ~docv:"K" ~doc:"Binary versions in flight per window")
  in
  let shards_arg =
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc:"Collector shards")
  in
  let duty_arg =
    Arg.(
      value & opt float 1.0
      & info [ "duty" ] ~docv:"P" ~doc:"Per-request sampling probability")
  in
  let edits_arg =
    Arg.(
      value & opt int 2
      & info [ "edits" ] ~docv:"E" ~doc:"Drift edits per release transition")
  in
  let spike_arg =
    Arg.(
      value
      & opt (some (pair ~sep:':' int int)) None
      & info [ "spike" ] ~docv:"G:E"
          ~doc:
            "Inject a drift of E edits at the transition into generation G \
             (other transitions keep --edits) — the mid-train anomaly the \
             EWMA detector should flag")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the report as canonical JSON instead of text")
  in
  let openmetrics_arg =
    Arg.(
      value & opt (some string) None
      & info [ "openmetrics" ] ~docv:"FILE"
          ~doc:"Write the final metrics snapshot as OpenMetrics exposition")
  in
  let openmetrics_series_arg =
    Arg.(
      value & opt (some string) None
      & info [ "openmetrics-series" ] ~docv:"FILE"
          ~doc:
            "Write the windowed series (one timestamped point per generation \
             on the fixed clock) as OpenMetrics exposition")
  in
  let run name generations instances versions shards duty edits spike jobs json
      openmetrics openmetrics_series =
    let w = Option.get (W.Suite.find name) in
    if versions < 1 then die "--versions must be at least 1";
    if generations < 1 then die "--generations must be at least 1";
    if instances < versions then die "--instances must be at least --versions";
    let schedule =
      match spike with
      | None -> []
      | Some (g, e) ->
          if g < 1 || g >= generations then
            die "--spike generation must be in 1..%d" (generations - 1);
          List.init g (fun i -> if i = g - 1 then e else edits)
    in
    let cfg =
      {
        Fl.Train.default with
        Fl.Train.t_generations = generations;
        t_edits = edits;
        t_edit_schedule = schedule;
        t_skew = versions - 1;
        t_cohort = max 1 (instances / versions);
        (* The health verdict needs no instr-PGO truth run; window-over-window
           overlap comes from the fleet profiles themselves. *)
        t_overlap = false;
        t_fleet =
          {
            Fl.Sim.default with
            Fl.Sim.f_shards = shards;
            f_duty = duty;
            f_jobs = jobs;
            f_request_copies = max 1 (instances / versions);
          };
      }
    in
    let metrics = Obs.Metrics.create () in
    let series = Obs.Series.create () in
    let tracker = Obs.Health.create () in
    let gens = Fl.Train.run ~obs:metrics ~series ~health:tracker cfg w in
    ignore gens;
    let rep = Obs.Health.report tracker in
    (* The canonical JSON must reparse whether or not it is printed. *)
    let doc = Obs.Json.to_string (Obs.Health.report_to_json rep) in
    ignore (Obs.Json.parse_exn doc);
    if json then print_endline doc
    else print_string (Obs.Health.report_to_text rep);
    Option.iter
      (fun path -> write_out path (Obs.Export.snapshot (Obs.Metrics.snapshot metrics)))
      openmetrics;
    Option.iter
      (fun path -> write_out path (Obs.Export.series series))
      openmetrics_series
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Run a fixed-clock release train and score one profile-health window \
          per generation: drop rate, correlation hit rate, inferred-frame \
          share, stale recovery, window-over-window overlap, and EWMA anomaly \
          alerts. Output is byte-identical at any -j.")
    Term.(
      const run $ workload_arg $ generations_arg $ instances_arg $ versions_arg
      $ shards_arg $ duty_arg $ edits_arg $ spike_arg $ jobs_arg $ json_flag
      $ openmetrics_arg $ openmetrics_series_arg)

(* --- labels --------------------------------------------------------- *)

let labels_cmd =
  let tenants_arg =
    Arg.(
      value
      & pos_all (pair ~sep:':' string int) []
      & info [] ~docv:"WORKLOAD:WEIGHT"
          ~doc:
            "Tenant mix: suite workload name and integer traffic weight, one \
             pair per tenant (e.g. adfinder:3 haas:1)")
  in
  let requests_arg =
    Arg.(
      value & opt int 48
      & info [ "requests" ] ~docv:"N" ~doc:"Labeled requests in the served stream")
  in
  let diurnal_arg =
    Arg.(
      value & opt int 0
      & info [ "diurnal" ] ~docv:"P"
          ~doc:
            "Modulate tenant weights with a phase-shifted triangle wave of \
             period P requests (0 disables the drift)")
  in
  let instances_arg =
    Arg.(
      value & opt int 2
      & info [ "instances" ] ~docv:"N" ~doc:"Serving instances")
  in
  let shards_arg =
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc:"Collector shards")
  in
  let duty_arg =
    Arg.(
      value & opt float 1.0
      & info [ "duty" ] ~docv:"P" ~doc:"Per-request sampling probability")
  in
  let seed_arg =
    Arg.(
      value & opt int64 7L
      & info [ "seed" ] ~docv:"S" ~doc:"Traffic-mix draw seed")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the comparison as canonical JSON instead of text")
  in
  let run tenants requests diurnal instances shards duty seed jobs json =
    if tenants = [] then
      die "labels: name at least one tenant as WORKLOAD:WEIGHT (e.g. adfinder:3)";
    let tenants =
      List.map
        (fun (name, weight) ->
          match W.Suite.find name with
          | Some w -> { W.Mix.t_name = name; t_workload = w; t_weight = weight }
          | None -> die "unknown workload %s (see `csspgo_tool list`)" name)
        tenants
    in
    let mix = W.Mix.make ~seed ~requests ~diurnal_period:diurnal tenants in
    let cfg =
      {
        Fl.Tenancy.default with
        Fl.Tenancy.ty_instances = instances;
        ty_shards = shards;
        ty_duty = duty;
        ty_jobs = jobs;
      }
    in
    let collected = Fl.Tenancy.collect cfg mix in
    let specialized = Fl.Tenancy.specialize cfg mix collected in
    let comparisons = Fl.Tenancy.quality cfg mix collected specialized in
    let count_of name =
      match List.assoc_opt name mix.W.Mix.mx_counts with Some n -> n | None -> 0
    in
    let doc =
      Obs.Json.Obj
        [
          ("mix", Obs.Json.String mix.W.Mix.mx_workload.D.w_name);
          ("requests", Obs.Json.Int collected.Fl.Tenancy.co_requests);
          ("sampled", Obs.Json.Int collected.Fl.Tenancy.co_sampled);
          ("samples", Obs.Json.Int collected.Fl.Tenancy.co_samples);
          ("batches", Obs.Json.Int collected.Fl.Tenancy.co_batches);
          ( "labels",
            Obs.Json.Int
              (Csspgo_profile.Labels.n_slices
                 collected.Fl.Tenancy.co_labeled.Fl.Build.lc_slices) );
          ( "tenants",
            Obs.Json.List
              (List.map
                 (fun (c : Fl.Tenancy.comparison) ->
                   Obs.Json.Obj
                     [
                       ("tenant", Obs.Json.String c.Fl.Tenancy.cp_tenant);
                       ("requests", Obs.Json.Int (count_of c.Fl.Tenancy.cp_tenant));
                       ( "samples",
                         Obs.Json.Int (Int64.to_int c.Fl.Tenancy.cp_weight) );
                       ("share", Obs.Json.Float c.Fl.Tenancy.cp_share);
                       ( "sliced_overlap",
                         if Float.is_nan c.Fl.Tenancy.cp_sliced_overlap then
                           Obs.Json.Null
                         else Obs.Json.Float c.Fl.Tenancy.cp_sliced_overlap );
                       ( "blended_overlap",
                         Obs.Json.Float c.Fl.Tenancy.cp_blended_overlap );
                       ( "sliced_cycles",
                         if Int64.compare c.Fl.Tenancy.cp_sliced_cycles 0L < 0
                         then Obs.Json.Null
                         else
                           Obs.Json.Int
                             (Int64.to_int c.Fl.Tenancy.cp_sliced_cycles) );
                       ( "blended_cycles",
                         Obs.Json.Int
                           (Int64.to_int c.Fl.Tenancy.cp_blended_cycles) );
                       ( "nopgo_cycles",
                         Obs.Json.Int (Int64.to_int c.Fl.Tenancy.cp_nopgo_cycles)
                       );
                     ])
                 comparisons) );
        ]
    in
    let text = Obs.Json.to_string doc in
    (* The canonical JSON must reparse whether or not it is printed. *)
    ignore (Obs.Json.parse_exn text);
    if json then print_endline text
    else begin
      Printf.printf "mix      %s\n" mix.W.Mix.mx_workload.D.w_name;
      Printf.printf "stream   %d requests, %d sampled, %d samples, %d label sets\n"
        collected.Fl.Tenancy.co_requests collected.Fl.Tenancy.co_sampled
        collected.Fl.Tenancy.co_samples
        (Csspgo_profile.Labels.n_slices
           collected.Fl.Tenancy.co_labeled.Fl.Build.lc_slices);
      List.iter
        (fun (c : Fl.Tenancy.comparison) ->
          Printf.printf
            "tenant   %-12s req %3d  samples %6Ld (%.1f%%)  overlap sliced %s \
             blended %.3f  cycles sliced %Ld blended %Ld nopgo %Ld\n"
            c.Fl.Tenancy.cp_tenant
            (count_of c.Fl.Tenancy.cp_tenant)
            c.Fl.Tenancy.cp_weight
            (100.0 *. c.Fl.Tenancy.cp_share)
            (if Float.is_nan c.Fl.Tenancy.cp_sliced_overlap then "-"
             else Printf.sprintf "%.3f" c.Fl.Tenancy.cp_sliced_overlap)
            c.Fl.Tenancy.cp_blended_overlap c.Fl.Tenancy.cp_sliced_cycles
            c.Fl.Tenancy.cp_blended_cycles c.Fl.Tenancy.cp_nopgo_cycles)
        comparisons
    end
  in
  Cmd.v
    (Cmd.info "labels"
       ~doc:
         "Serve a weighted multi-tenant workload mix with request-scoped \
          profile labels, slice the correlated profile per tenant, and \
          compare per-tenant specialized builds against the blended build \
          (overlap vs instrumentation ground truth, cycles vs no-PGO). \
          Output is byte-identical at any -j.")
    Term.(
      const run $ tenants_arg $ requests_arg $ diurnal_arg $ instances_arg
      $ shards_arg $ duty_arg $ seed_arg $ jobs_arg $ json_flag)

(* --- bench-check ---------------------------------------------------- *)

(* Schema guard for the committed BENCH_*.json artifacts: every file must
   be valid JSON recording the host core count, and the known experiments
   must carry their headline fields (a dotted name reaches into an object)
   — a bench refactor that silently stops writing a field fails here, not
   in a reader months later. *)
let bench_check_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE" ~doc:"BENCH_*.json files to validate")
  in
  let required = function
    | "BENCH_stale.json" -> [ "distances"; "workloads"; "aggregate_overlap" ]
    | "BENCH_format.json" ->
        [
          "workload"; "profiles"; "sample_log"; "incremental";
          "incremental.cold_rebuild_s"; "incremental.delta_rebuild_s";
        ]
    | "BENCH_fleet.json" ->
        [ "workload"; "fleet_sizes"; "duty_sweep"; "skew_sweep"; "train" ]
    | "BENCH_corr.json" -> [ "workload"; "n_samples"; "decode"; "correlate" ]
    | "BENCH_health.json" -> [ "workload"; "overhead_pct"; "windows"; "crit_alerts" ]
    | "BENCH_labels.json" -> [ "tenants"; "requests"; "skew_levels"; "drift" ]
    | _ -> []
  in
  let run files =
    List.iter
      (fun path ->
        let doc =
          match Obs.Json.parse (read_file path) with
          | Ok d -> d
          | Error msg -> die "%s: %s" path msg
        in
        (match Obs.Json.member "cores" doc with
        | Some (Obs.Json.Int n) when n >= 1 -> ()
        | Some (Obs.Json.Int n) ->
            die "%s: host core count must be > 0, got %d" path n
        | Some j ->
            die "%s: host core count must be > 0, got %s" path
              (Obs.Json.to_string j)
        | None -> die "%s: missing \"cores\" (host core count)" path);
        List.iter
          (fun k ->
            let field =
              List.fold_left
                (fun j name -> Option.bind j (Obs.Json.member name))
                (Some doc) (String.split_on_char '.' k)
            in
            if field = None then die "%s: missing field %S" path k)
          (required (Filename.basename path));
        Printf.printf "%s: ok\n" (Filename.basename path))
      files
  in
  Cmd.v
    (Cmd.info "bench-check"
       ~doc:
         "Validate committed BENCH_*.json artifacts: parseable JSON, a \
          recorded host core count, and the per-experiment headline fields")
    Term.(const run $ files_arg)

(* --- fuzz ---------------------------------------------------------- *)

module Fuzz = Csspgo_fuzz

let seeds_conv =
  let parse s =
    match String.index_opt s '-' with
    | Some i -> (
        let lo = String.sub s 0 i
        and hi = String.sub s (i + 1) (String.length s - i - 1) in
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some lo, Some hi when lo >= 0 && hi >= lo -> Ok (lo, hi)
        | _ -> Error (`Msg (Printf.sprintf "invalid seed range %S (want LO-HI)" s)))
    | None -> (
        match int_of_string_opt s with
        | Some n when n >= 0 -> Ok (n, n)
        | _ -> Error (`Msg (Printf.sprintf "invalid seed range %S (want LO-HI)" s)))
  in
  let print fmt (lo, hi) = Format.fprintf fmt "%d-%d" lo hi in
  Arg.conv (parse, print)

(* A count below 1 is a usage error that points at [--skip FAMILY], the
   one way to turn a family off. *)
let count_conv ~family =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ ->
        Error
          (`Msg (Printf.sprintf "must be at least 1; use --skip %s to turn it off" family))
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let fuzz_cmd =
  let seeds_arg =
    Arg.(
      value & opt seeds_conv (1, 1000)
      & info [ "seeds" ] ~docv:"LO-HI" ~doc:"Inclusive seed range to fuzz")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"DIR" ~doc:"Corpus directory for minimized reproducers")
  in
  let plans_arg =
    Arg.(
      value
      & opt (count_conv ~family:"plans")
          Fuzz.Campaign.default_config.Fuzz.Campaign.cf_plans_per_seed
      & info [ "plans" ] ~docv:"N" ~doc:"Random pipeline permutations per seed")
  in
  let n_funcs_arg =
    Arg.(
      value & opt int Fuzz.Campaign.default_config.Fuzz.Campaign.cf_n_funcs
      & info [ "n-funcs" ] ~docv:"N" ~doc:"Functions per generated program")
  in
  let size_arg =
    Arg.(
      value & opt int Fuzz.Campaign.default_config.Fuzz.Campaign.cf_size
      & info [ "size" ] ~docv:"N" ~doc:"Program size knob (statements per block)")
  in
  let floor_arg =
    Arg.(
      value & opt float Fuzz.Campaign.default_config.Fuzz.Campaign.cf_quality_floor
      & info [ "quality-floor" ] ~docv:"F"
          ~doc:"Minimum probe-vs-instrumentation block overlap")
  in
  let no_minimize_arg =
    Arg.(value & flag & info [ "no-minimize" ] ~doc:"Report failures without shrinking")
  in
  let skip_arg =
    let names = List.map (fun f -> f.Fuzz.Campaign.fam_name) Fuzz.Campaign.families in
    Arg.(
      value
      & opt_all (enum (List.map (fun n -> (n, n)) names)) []
      & info [ "skip" ] ~docv:"FAMILY"
          ~doc:
            (Printf.sprintf
               "Skip an oracle family; repeatable. $(docv) is %s (run in \
                that order; $(b,variants) includes the profile-quality oracle)."
               (Arg.doc_alts names)))
  in
  let fuzz_stale_edits_arg =
    Arg.(
      value
      & opt (count_conv ~family:"stale")
          Fuzz.Campaign.default_config.Fuzz.Campaign.cf_stale_edits
      & info [ "stale-edits" ] ~docv:"N"
          ~doc:"Drift edit-script length for the stale-matching oracle")
  in
  let max_failures_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-failures" ] ~docv:"N" ~doc:"Stop the campaign after N failures")
  in
  let inject_arg =
    Arg.(
      value & flag
      & info [ "inject-bug" ]
          ~doc:"Append a deliberately broken pass to every pipeline (harness self-test)")
  in
  let run (lo, hi) out plans n_funcs size floor no_minimize skip stale_edits
      max_failures inject jobs cache_dir metrics_file =
    let cfg =
      {
        Fuzz.Campaign.cf_plans_per_seed = plans;
        cf_n_funcs = n_funcs;
        cf_size = size;
        cf_quality_floor = floor;
        cf_minimize = not no_minimize;
        cf_skip = skip;
        cf_stale_edits = stale_edits;
        cf_max_failures = max_failures;
        cf_inject = (if inject then Some Fuzz.Campaign.planted_bug else None);
      }
    in
    let cache = cache_of_dir cache_dir in
    let obs = mk_obs ~live:(metrics_file <> None) () in
    (* Progress and summary stats go to stderr; stdout carries only the
       machine-parseable FAIL records. *)
    let total = hi - lo + 1 in
    let progress (st : Fuzz.Campaign.stats) =
      Printf.eprintf "\r[fuzz] %d/%d seeds  discards %d  failures %d%!"
        st.Fuzz.Campaign.st_runs total st.Fuzz.Campaign.st_discards
        (Fuzz.Campaign.n_failures st)
    in
    let st =
      Fuzz.Campaign.run ?out_dir:out ~progress ?cache ~obs ~jobs cfg ~seeds:(lo, hi)
    in
    Printf.eprintf "\n%!";
    List.iter
      (fun (fl : Fuzz.Campaign.failure) ->
        Printf.printf "FAIL seed %Ld  %s  at %s\n  %s\n" fl.Fuzz.Campaign.fl_seed
          (Fuzz.Campaign.kind_name fl.Fuzz.Campaign.fl_kind)
          (Fuzz.Campaign.site_to_string fl.Fuzz.Campaign.fl_site)
          fl.Fuzz.Campaign.fl_detail;
        match fl.Fuzz.Campaign.fl_minimized with
        | Some m ->
            Printf.printf "  minimized to %d lines%s\n"
              (Fuzz.Reduce.count_source_lines m)
              (match out with Some d -> Printf.sprintf " (see %s/)" d | None -> "")
        | None -> ())
      (List.rev st.Fuzz.Campaign.st_failures);
    Format.eprintf "%a@." Fuzz.Campaign.pp_stats st;
    export_metrics obs metrics_file;
    if Fuzz.Campaign.n_failures st > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing campaign: permuted pass pipelines and PGO variants \
          against an -O0 reference, with test-case minimization")
    Term.(
      const run $ seeds_arg $ out_arg $ plans_arg $ n_funcs_arg $ size_arg $ floor_arg
      $ no_minimize_arg $ skip_arg $ fuzz_stale_edits_arg $ max_failures_arg
      $ inject_arg $ jobs_arg $ cache_dir_arg $ metrics_arg)

(* --- cache ---------------------------------------------------------- *)

let cache_cmd =
  let dir_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Artifact cache directory")
  in
  let clear_arg =
    Arg.(value & flag & info [ "clear" ] ~doc:"Delete every cache entry in DIR")
  in
  let run dir clear =
    if clear then Printf.printf "removed %d entries from %s\n" (O.Cache.clear_dir dir) dir
    else begin
      let s = O.Cache.scan_dir dir in
      Printf.printf "entries  %d\n" s.O.Cache.d_entries;
      Printf.printf "bytes    %d\n" s.O.Cache.d_bytes;
      List.iter (fun (k, n) -> Printf.printf "  %-14s %6d\n" k n) s.O.Cache.d_kinds
    end
  in
  Cmd.v
    (Cmd.info "cache" ~doc:"Show statistics for (or clear) an artifact cache directory")
    Term.(const run $ dir_arg $ clear_arg)

let () =
  let info =
    Cmd.info "csspgo" ~version:"1.0.0"
      ~doc:"CSSPGO: context-sensitive sampling-based PGO with pseudo-instrumentation"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_cmd; run_cmd; pgo_cmd; stale_cmd; report_cmd; probes_cmd;
            contexts_cmd; convert_cmd; inspect_cmd; fleet_cmd; health_cmd;
            labels_cmd;
            bench_check_cmd; fuzz_cmd; cache_cmd;
          ]))
