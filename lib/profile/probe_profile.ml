module Ir = Csspgo_ir

type fentry = {
  mutable fe_total : int64;
  mutable fe_head : int64;
  fe_probes : (int, int64) Hashtbl.t;
  fe_calls : (int, (Ir.Guid.t, int64) Hashtbl.t) Hashtbl.t;
  mutable fe_checksum : int64;
}

type t = {
  funcs : fentry Ir.Guid.Tbl.t;
  names : string Ir.Guid.Tbl.t;
}

let shape =
  {
    Counts.make =
      (fun fe_probes fe_calls ->
        { fe_total = 0L; fe_head = 0L; fe_probes; fe_calls; fe_checksum = 0L });
    counts = (fun fe -> fe.fe_probes);
    calls = (fun fe -> fe.fe_calls);
    total = (fun fe -> fe.fe_total);
    set_total = (fun fe n -> fe.fe_total <- n);
    head = (fun fe -> fe.fe_head);
    set_head = (fun fe n -> fe.fe_head <- n);
  }

let create () = { funcs = Ir.Guid.Tbl.create 64; names = Ir.Guid.Tbl.create 64 }
let get t guid = Ir.Guid.Tbl.find_opt t.funcs guid
let get_or_add t guid ~name = Counts.get_or_add shape ~funcs:t.funcs ~names:t.names guid ~name
let add_probe fe id n = Counts.add shape fe id n
let add_call fe id callee n = Counts.add_call shape fe id callee n
let probe_count fe id = Counts.count shape fe id
let call_counts fe id = Counts.call_counts shape fe id
let total_samples t = Counts.total_samples shape t.funcs
