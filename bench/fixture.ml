(* The setup every experiment shares, written once: memoized profiling
   runs and variant outcomes, one Bechamel estimator, one BENCH writer. *)

module Vm = Csspgo_vm
module D = Csspgo_core.Driver
module Fl = Csspgo_fleet
module Json = Csspgo_obs.Json

let pf = Printf.printf

(* Wall time of one call, with its result. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Best wall time of three calls. *)
let time_best f =
  let best = ref infinity in
  for _ = 1 to 3 do
    best := Float.min !best (snd (time f))
  done;
  !best

let sep title =
  pf "\n==================================================================\n";
  pf "%s\n" title;
  pf "==================================================================\n"

(* Memoize [f] on a structural key. *)
let memo f =
  let tbl = Hashtbl.create 16 in
  fun key ->
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = f key in
        Hashtbl.replace tbl key v;
        v

type profiled = {
  build : Fl.Build.built;
  log : Vm.Sample_log.t;  (** every training run, in order *)
  cycles : int64;  (** total training-run cycles *)
}

(* The profiling build of [shape] (plain for [Lines], probed otherwise)
   run over the training inputs under [options.pmu]. The memo key is the
   whole workload, not its name: callers that swap in a drifted source
   keep the name. *)
let profile_memo =
  memo (fun ((w : D.workload), (options : D.options), shape) ->
      let build = Fl.Build.profiling_build ~options ~shape ~source:w.D.w_source in
      let log = Vm.Sample_log.create () in
      let cycles =
        List.fold_left
          (fun acc (spec : D.run_spec) ->
            let r =
              Vm.Machine.run ~pmu:(Some options.D.pmu) ~sink:(Vm.Sample_log.sink log)
                ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args build.Fl.Build.vb_bin
                ~entry:w.D.w_entry
            in
            Int64.add acc r.Vm.Machine.cycles)
          0L w.D.w_train
      in
      Vm.Sample_log.compact log;
      { build; log; cycles })

let profile ?(options = D.default_options) ~shape w = profile_memo (w, options, shape)

(* One driver run per (workload, options, variant). *)
let outcome_memo = memo (fun (w, options, v) -> D.run_variant ~options v w)
let outcome ?(options = D.default_options) w v = outcome_memo (w, options, v)

(* Bechamel's OLS estimate of [f]'s cost, in ns per run. *)
let estimate name f =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
  let results =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"bench" ~fmt:"%s/%s" [ Test.make ~name (Staged.stage f) ])
  in
  let ols =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance results
  in
  Hashtbl.fold
    (fun _ o est -> match Analyze.OLS.estimates o with Some [ e ] -> e | _ -> est)
    ols nan

(* The host core count; every BENCH file records it (bench-check). *)
let cores = Domain.recommended_domain_count ()

let write_bench file json =
  let oc = open_out file in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  pf "wrote %s\n" file
