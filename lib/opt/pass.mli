(** Pass manager: runs the optimization pipeline over a whole program.
    The pipeline mirrors a -O2 compiler: local cleanup, inlining, loop
    optimizations, if-conversion, tail merging, DCE.

    The post-inline per-function pipeline is exposed as an explicit [step]
    list so tools (notably the differential fuzzer in [Csspgo_fuzz]) can
    permute, drop, and replay passes: every ordering must preserve program
    semantics, even when it ruins optimization quality. *)

type step =
  | Constfold
  | Simplify
  | Licm
  | Unroll
  | Ifcvt
  | Tail_dup
  | Tail_merge
  | Dce

val step_name : step -> string

val all_steps : step list
(** Every step, once, in the default -O2 relative order. *)

val steps_of_config : Config.t -> step list
(** The per-function pipeline [optimize] runs for this config (empty at
    -O0; includes the repeated cleanup steps at -O2). *)

val run_step : config:Config.t -> step -> Csspgo_ir.Func.t -> bool
(** Run one step unconditionally — the step list decides what runs.
    Returns true if the IR changed. *)

val optimize_func_with :
  config:Config.t ->
  steps:step list ->
  ?program:Csspgo_ir.Program.t ->
  Csspgo_ir.Func.t ->
  unit
(** The per-function (post-inline) part of the pipeline, running an
    explicit step list. When [program] is
    given and [verify_between_passes] is set, the function is re-verified
    after every step and [Failure] raised on the first broken invariant. *)

val prepare : config:Config.t -> Csspgo_ir.Program.t -> bool
(** The program-level prefix of [optimize]: initial simplify, early
    cleanup, inlining and dead-function elimination (with inter-phase
    verification). After [prepare] the rest of the pipeline is purely
    per-function ([optimize_func_with]), so callers that cache compiled
    functions (the incremental rebuild engine in [Core.Driver]) can run
    [prepare] and then choose per function between replaying the step
    list and splicing in a cached body. Returns [true] when the
    per-function pipeline should run (i.e. [config.optimize]). *)

val optimize : config:Config.t -> Csspgo_ir.Program.t -> unit
(** Full pipeline, including inlining and dead-function elimination.
    Raises [Failure] if [verify_between_passes] is set and a pass breaks
    the IR. *)

val optimize_with : config:Config.t -> steps:step list -> Csspgo_ir.Program.t -> unit
(** [optimize] with an explicit post-inline step list. *)
