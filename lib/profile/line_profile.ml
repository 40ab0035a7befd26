module Ir = Csspgo_ir

type key = int * int

type fentry = {
  mutable fe_total : int64;
  mutable fe_head : int64;
  fe_lines : (key, int64) Hashtbl.t;
  fe_calls : (key, (Ir.Guid.t, int64) Hashtbl.t) Hashtbl.t;
}

type t = {
  funcs : fentry Ir.Guid.Tbl.t;
  names : string Ir.Guid.Tbl.t;
}

let shape =
  {
    Counts.make =
      (fun fe_lines fe_calls -> { fe_total = 0L; fe_head = 0L; fe_lines; fe_calls });
    counts = (fun fe -> fe.fe_lines);
    calls = (fun fe -> fe.fe_calls);
    total = (fun fe -> fe.fe_total);
    set_total = (fun fe n -> fe.fe_total <- n);
    head = (fun fe -> fe.fe_head);
    set_head = (fun fe n -> fe.fe_head <- n);
  }

let create () = { funcs = Ir.Guid.Tbl.create 64; names = Ir.Guid.Tbl.create 64 }
let get t guid = Ir.Guid.Tbl.find_opt t.funcs guid
let get_or_add t guid ~name = Counts.get_or_add shape ~funcs:t.funcs ~names:t.names guid ~name
let add_line fe key n = Counts.add shape fe key n

let set_line_max fe key n =
  let cur = Counts.count shape fe key in
  if Int64.compare n cur > 0 then begin
    Hashtbl.replace fe.fe_lines key n;
    fe.fe_total <- Int64.add fe.fe_total (Int64.sub n cur)
  end

let add_call fe key callee n = Counts.add_call shape fe key callee n
let line_count fe key = Counts.count shape fe key
let call_counts fe key = Counts.call_counts shape fe key
let total_samples t = Counts.total_samples shape t.funcs
