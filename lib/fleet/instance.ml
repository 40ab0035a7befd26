module Vm = Csspgo_vm
module Rng = Csspgo_support.Rng
module D = Csspgo_core.Driver

type config = {
  ic_instance : int;
  ic_version : int;
  ic_duty : float;
  ic_batch_requests : int;
  ic_seed : int64;
}

type batch = {
  b_instance : int;
  b_version : int;
  b_seq : int;
  b_blob : string;
  b_samples : int;
  b_requests : int;
}

type report = {
  ir_batches : int;
  ir_requests : int;
  ir_sampled : int;
  ir_samples : int;
  ir_cycles : int64;
}

let serve_labeled cfg ~pmu ~bin ~entry ~requests ~ship =
  if cfg.ic_batch_requests <= 0 then
    invalid_arg "Instance.serve: ic_batch_requests must be positive";
  let rng = Rng.create cfg.ic_seed in
  let log = ref (Vm.Sample_log.create ()) in
  let pending = ref 0 in
  let seq = ref 0 in
  let shipped = ref 0 in
  let requests_n = ref 0 in
  let sampled = ref 0 in
  let samples = ref 0 in
  let cycles = ref 0L in
  let flush () =
    if !pending > 0 then begin
      let n = Vm.Sample_log.n_samples !log in
      (if n > 0 then begin
         ship
           {
             b_instance = cfg.ic_instance;
             b_version = cfg.ic_version;
             b_seq = !seq;
             b_blob = Vm.Sample_log.encode !log;
             b_samples = n;
             b_requests = !pending;
           };
         incr shipped
       end);
      incr seq;
      log := Vm.Sample_log.create ();
      pending := 0
    end
  in
  List.iter
    (fun ((spec : D.run_spec), labels) ->
      (* The gate draw happens for every request, sampled or not, so the
         duty stream stays aligned across batch-size choices. *)
      let sample_this = Rng.chance rng cfg.ic_duty in
      let r =
        Vm.Machine.run
          ~pmu:(if sample_this then Some pmu else None)
          ~sink:(Vm.Sample_log.sink !log)
          ~labels ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args bin
          ~entry
      in
      incr requests_n;
      if sample_this then begin
        incr sampled;
        samples := !samples + r.Vm.Machine.n_samples
      end;
      cycles := Int64.add !cycles r.Vm.Machine.cycles;
      incr pending;
      if !pending >= cfg.ic_batch_requests then flush ())
    requests;
  flush ();
  {
    ir_batches = !shipped;
    ir_requests = !requests_n;
    ir_sampled = !sampled;
    ir_samples = !samples;
    ir_cycles = !cycles;
  }

let serve cfg ~pmu ~bin ~entry ~requests ~ship =
  serve_labeled cfg ~pmu ~bin ~entry
    ~requests:
      (List.map (fun s -> (s, Csspgo_support.Label_set.empty)) requests)
    ~ship
