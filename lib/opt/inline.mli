(** Function inlining.

    [inline_at] performs the mechanical transform for a single call site:
    callee blocks are cloned into the caller with registers remapped, the
    call block split, parameters bound by moves, and returns rewritten to
    jumps to the continuation. Debug locations of cloned instructions are
    extended with the callsite frame (function, line, callsite-probe id), so
    both DWARF-style and probe-based correlation can see through inlining.

    Profile maintenance uses *context-insensitive scaling*: cloned block
    counts are the callee's own profile scaled by callsite-count /
    callee-entry-count. This is precisely the post-inline inaccuracy of
    §II.B / Fig. 3a; the CSSPGO driver instead re-annotates inlined bodies
    from the context-sensitive profile slice (Fig. 3b) using the returned
    block mapping.

    [run] is the in-compiler bottom-up inliner (LLVM CGSCC-style): cost =
    callee instruction count, benefit = callsite hotness when a profile is
    present. It inlines across modules, ThinLTO-style: an imported callee's
    profile is still scaled, never adjusted (§III.B). *)

type result = {
  block_map : (Csspgo_ir.Types.label * Csspgo_ir.Types.label) list;
      (** callee label -> new caller label, for post-inline re-annotation *)
  continuation : Csspgo_ir.Types.label;
}

val inline_at :
  Csspgo_ir.Program.t ->
  caller:Csspgo_ir.Func.t ->
  block:Csspgo_ir.Types.label ->
  index:int ->
  result option
(** Inline the call at instruction [index] of [block]. Returns [None] when
    the instruction is not a call to a known function, or the callee is the
    caller itself (direct recursion is never inlined). *)

val run : config:Config.t -> Csspgo_ir.Program.t -> bool

val drop_dead_functions : Csspgo_ir.Program.t -> string list
(** Remove functions unreachable from [main] in the call graph (post-inline
    cleanup that shrinks code size). Returns the dropped names. *)
