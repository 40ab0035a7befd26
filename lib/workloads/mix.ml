module D = Csspgo_core.Driver
module Ast = Csspgo_frontend.Ast
module Parser = Csspgo_frontend.Parser
module Pretty = Csspgo_frontend.Pretty
module Rng = Csspgo_support.Rng
module Label_set = Csspgo_support.Label_set

type tenant = { t_name : string; t_workload : D.workload; t_weight : int }

type t = {
  mx_workload : D.workload;
  mx_requests : (D.run_spec * Label_set.t) list;
  mx_tenant_evals : (string * D.run_spec list) list;
  mx_counts : (string * int) list;
}

let tenant_key = "tenant"
let endpoint_key = "endpoint"

let label_of_tenant t =
  Label_set.of_list
    [ (tenant_key, t.t_name); (endpoint_key, t.t_workload.D.w_name) ]

(* --- AST composition -------------------------------------------------- *)

(* Prefix-rename one tenant's program: functions (and every call site),
   globals (referenced only through Index/Store — MiniC globals are
   arrays, so locals can never shadow them) and modules. *)
let rename prefix (p : Ast.program) =
  let fns = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace fns f.Ast.fname ()) p.Ast.pfns;
  let globals = Hashtbl.create 16 in
  List.iter (fun (g, _) -> Hashtbl.replace globals g ()) p.Ast.pglobals;
  let fn name = if Hashtbl.mem fns name then prefix ^ name else name in
  let glob name = if Hashtbl.mem globals name then prefix ^ name else name in
  let rename_globals (st : Ast.stmt) =
    match st.s with
    | Ast.Store (g, i, v) -> { st with s = Ast.Store (glob g, i, v) }
    | _ -> st
  in
  let rename_refs (e : Ast.expr) =
    match e.e with
    | Ast.Call (name, args) -> { e with e = Ast.Call (fn name, args) }
    | Ast.Index (g, i) -> { e with e = Ast.Index (glob g, i) }
    | _ -> e
  in
  {
    Ast.pglobals = List.map (fun (g, n) -> (prefix ^ g, n)) p.Ast.pglobals;
    pfns =
      List.map
        (fun f ->
          {
            f with
            Ast.fname = prefix ^ f.Ast.fname;
            fbody = Ast.map ~stmt:rename_globals ~expr:rename_refs f.Ast.fbody;
            fmodule = prefix ^ f.Ast.fmodule;
          })
        p.Ast.pfns;
  }

let e0 k = { Ast.e = k; eline = 1 }
let s0 k = { Ast.s = k; sline = 1 }

(* main(tenant, a0 .. a{width-1}): switch on the tenant id to the renamed
   entry, passing each tenant its own arity's worth of arguments. *)
let dispatcher ~width entries =
  let args = List.init width (fun i -> Printf.sprintf "a%d" i) in
  let cases =
    List.mapi
      (fun i (entry, arity) ->
        let call =
          Ast.Call (entry, List.map (fun a -> e0 (Ast.Var a)) (List.filteri (fun j _ -> j < arity) args))
        in
        (Int64.of_int i, [ s0 (Ast.Return (e0 call)) ]))
      entries
  in
  {
    Ast.fname = "main";
    fparams = "tenant" :: args;
    fbody =
      [
        s0
          (Ast.Switch
             (e0 (Ast.Var "tenant"), cases, [ s0 (Ast.Return (e0 (Ast.Int 0L))) ]));
      ];
    fline = 1;
    fmodule = "mixmain";
  }

(* --- traffic ---------------------------------------------------------- *)

(* Integer triangle wave in [1, amp], period [period], phase-shifted:
   deterministic diurnal modulation of a tenant's base weight. *)
let diurnal_amp = 4

let wave ~period ~phase k =
  if period <= 0 then 1
  else
    let x = (k + phase) mod period in
    let up = if 2 * x <= period then 2 * x else (2 * period) - (2 * x) in
    1 + ((diurnal_amp - 1) * up / period)

let make ?(seed = 7L) ?(requests = 64) ?(diurnal_period = 0) tenants =
  if tenants = [] then invalid_arg "Mix.make: no tenants";
  let names = Hashtbl.create 8 in
  List.iter
    (fun t ->
      if t.t_weight <= 0 then invalid_arg "Mix.make: non-positive weight";
      if t.t_workload.D.w_train = [] then
        invalid_arg "Mix.make: tenant workload has no train spec";
      if Hashtbl.mem names t.t_name then
        invalid_arg "Mix.make: duplicate tenant name";
      Hashtbl.replace names t.t_name ())
    tenants;
  let n = List.length tenants in
  let parsed =
    List.mapi
      (fun i t ->
        let prefix = Printf.sprintf "t%d_" i in
        (i, t, prefix, rename prefix (Parser.parse t.t_workload.D.w_source)))
      tenants
  in
  let arity_of i t p =
    let entry = Printf.sprintf "t%d_%s" i t.t_workload.D.w_entry in
    match List.find_opt (fun f -> String.equal f.Ast.fname entry) p.Ast.pfns with
    | Some f -> List.length f.Ast.fparams
    | None ->
        invalid_arg
          (Printf.sprintf "Mix.make: tenant %s has no entry %s" t.t_name
             t.t_workload.D.w_entry)
  in
  let entries =
    List.map
      (fun (i, t, prefix, p) ->
        (prefix ^ t.t_workload.D.w_entry, arity_of i t p))
      parsed
  in
  let width = List.fold_left (fun a (_, ar) -> max a ar) 0 entries in
  let program =
    {
      Ast.pglobals = List.concat_map (fun (_, _, _, p) -> p.Ast.pglobals) parsed;
      pfns =
        List.concat_map (fun (_, _, _, p) -> p.Ast.pfns) parsed
        @ [ dispatcher ~width entries ];
    }
  in
  let source = Pretty.program program in
  (* Re-dispatch one of the tenant's specs through the combined entry:
     prepend the tenant id, pad args to the dispatcher arity, and rename
     the initialized globals. *)
  let respec i prefix (spec : D.run_spec) =
    let pad = width - List.length spec.D.rs_args in
    if pad < 0 then invalid_arg "Mix.make: spec wider than entry arity";
    {
      D.rs_args =
        (Int64.of_int i :: spec.D.rs_args) @ List.init pad (fun _ -> 0L);
      rs_globals = List.map (fun (g, a) -> (prefix ^ g, a)) spec.D.rs_globals;
    }
  in
  let rng = Rng.create seed in
  let train_cursor = Array.make n 0 in
  let counts = Array.make n 0 in
  let tenant_arr = Array.of_list parsed in
  let phase i = if n = 0 then 0 else i * diurnal_period / n in
  let stream = ref [] in
  for k = 0 to requests - 1 do
    let total = ref 0 in
    Array.iter
      (fun (i, t, _, _) ->
        total := !total + (t.t_weight * wave ~period:diurnal_period ~phase:(phase i) k))
      tenant_arr;
    let r = ref (Rng.int rng !total) in
    let chosen = ref tenant_arr.(0) in
    (try
       Array.iter
         (fun ((i, t, _, _) as entry) ->
           let w = t.t_weight * wave ~period:diurnal_period ~phase:(phase i) k in
           if !r < w then begin
             chosen := entry;
             raise Exit
           end
           else r := !r - w)
         tenant_arr
     with Exit -> ());
    let i, t, prefix, _ = !chosen in
    let train = t.t_workload.D.w_train in
    let spec = List.nth train (train_cursor.(i) mod List.length train) in
    train_cursor.(i) <- train_cursor.(i) + 1;
    counts.(i) <- counts.(i) + 1;
    stream := (respec i prefix spec, label_of_tenant t) :: !stream
  done;
  let mx_requests = List.rev !stream in
  let mx_tenant_evals =
    List.map
      (fun (i, t, prefix, _) ->
        (t.t_name, List.map (respec i prefix) t.t_workload.D.w_eval))
      parsed
  in
  let mx_workload =
    {
      D.w_name =
        "mix:"
        ^ String.concat "+" (List.map (fun t -> t.t_name) tenants);
      w_source = source;
      w_entry = "main";
      w_train = List.map fst mx_requests;
      w_eval = List.concat_map snd mx_tenant_evals;
    }
  in
  {
    mx_workload;
    mx_requests;
    mx_tenant_evals;
    mx_counts =
      List.map (fun (i, t, _, _) -> (t.t_name, counts.(i))) parsed;
  }
