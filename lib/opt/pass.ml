module Ir = Csspgo_ir

let src = Logs.Src.create "csspgo.opt" ~doc:"optimization pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

(* The post-inline per-function pipeline is data, not control flow: a list
   of steps that can be inspected, reordered and resampled (the fuzzing
   harness permutes it to hunt for pass-ordering bugs). *)
type step =
  | Constfold
  | Simplify
  | Licm
  | Unroll
  | Ifcvt
  | Tail_dup
  | Tail_merge
  | Dce

let step_name = function
  | Constfold -> "constfold"
  | Simplify -> "simplify"
  | Licm -> "licm"
  | Unroll -> "unroll"
  | Ifcvt -> "ifcvt"
  | Tail_dup -> "tail-dup"
  | Tail_merge -> "tail-merge"
  | Dce -> "dce"

let all_steps = [ Constfold; Simplify; Licm; Unroll; Ifcvt; Tail_dup; Tail_merge; Dce ]

(* Run one step unconditionally (the step list decides what runs); true if
   the IR changed. *)
let run_step ~(config : Config.t) step (f : Ir.Func.t) =
  match step with
  | Constfold -> Constfold.run f
  | Simplify -> Simplify.run ~config f
  | Licm -> Licm.run f
  | Unroll -> Unroll.run f
  | Ifcvt -> Ifcvt.run ~config f
  | Tail_dup -> Tail_dup.run f
  | Tail_merge -> Tail_merge.run f
  | Dce -> Dce.run f

let steps_of_config (config : Config.t) =
  if not config.Config.optimize then []
  else
    (* If-conversion before tail duplication: duplicating a join block into
       the arms destroys the diamond pattern (profitability, not safety —
       any order must stay semantics-preserving). *)
    [
      Constfold; Simplify; Licm; Unroll; Ifcvt; Tail_dup;
      Constfold; Simplify; Tail_merge; Dce; Simplify;
    ]

let verify_if ~(config : Config.t) p stage =
  if config.Config.verify_between_passes then
    match Ir.Verify.program p with
    | [] -> ()
    | errs ->
        let msg =
          Format.asprintf "@[<v>after %s:@ %a@]" stage
            (Format.pp_print_list Ir.Verify.pp_error)
            errs
        in
        failwith msg

let verify_func_if ~(config : Config.t) p f stage =
  if config.Config.verify_between_passes then
    match Ir.Verify.func ~program:p f with
    | [] -> ()
    | errs ->
        let msg =
          Format.asprintf "@[<v>after %s in %s:@ %a@]" stage f.Ir.Func.name
            (Format.pp_print_list Ir.Verify.pp_error)
            errs
        in
        failwith msg

let optimize_func_with ~(config : Config.t) ~steps ?(program : Ir.Program.t option)
    (f : Ir.Func.t) =
  List.iter
    (fun step ->
      ignore (run_step ~config step f);
      match program with
      | Some p -> verify_func_if ~config p f (step_name step)
      | None -> ())
    steps;
  (* Passes maintain counts only approximately; re-infer a consistent
     profile for codegen (edge flows re-derived from block counts). *)
  if config.Config.optimize && f.Ir.Func.annotated then
    Csspgo_inference.Infer.infer_func f

(* The program-level prefix of the pipeline: cleanup and cross-function
   phases (inlining, dead-function drop) that must see the whole program.
   After [prepare] the remaining work is purely per-function, which is
   what lets the incremental rebuild engine in [Core.Driver] swap in
   cached post-pipeline bodies for functions whose annotated image did
   not drift. Returns [true] when the per-function pipeline should run. *)
let prepare ~(config : Config.t) (p : Ir.Program.t) =
  (* Even at -O0 the lowering junk blocks must go. *)
  Ir.Program.iter_funcs (fun f -> ignore (Simplify.run ~config f)) p;
  verify_if ~config p "initial simplify";
  if not config.Config.optimize then false
  else begin
    Ir.Program.iter_funcs
      (fun f ->
        ignore (Constfold.run f);
        ignore (Simplify.run ~config f))
      p;
    verify_if ~config p "early cleanup";
    if Inline.run ~config p then begin
      let dropped = Inline.drop_dead_functions p in
      if dropped <> [] then
        Log.debug (fun m -> m "dropped %d fully-inlined functions" (List.length dropped))
    end;
    verify_if ~config p "inlining";
    true
  end

let optimize_with ~(config : Config.t) ~steps (p : Ir.Program.t) =
  if prepare ~config p then begin
    Ir.Program.iter_funcs (fun f -> optimize_func_with ~config ~steps ~program:p f) p;
    verify_if ~config p "function pipeline"
  end

let optimize ~(config : Config.t) (p : Ir.Program.t) =
  optimize_with ~config ~steps:(steps_of_config config) p
