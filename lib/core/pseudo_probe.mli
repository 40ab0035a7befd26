(** Pseudo-instrumentation (§III.A): inserts a block probe at the head of
    every basic block and assigns a callsite probe id to every call, at an
    early pipeline stage (right after lowering, before any transformation).

    Probes are intrinsic IR instructions that cost no machine code — they
    materialize as metadata records in the emitted binary. They block code
    merge (tail merge compares probe ids) but, in the default fine-tuned
    configuration, do not block if-conversion or block forwarding.

    A CFG checksum is computed at insertion time and stored on the function;
    profiles carry it so that source drift altering the CFG is detected as a
    mismatch, while CFG-preserving edits (comments, renames) keep the
    profile usable. *)

val insert : Csspgo_ir.Program.t -> unit

val checksum : Csspgo_ir.Func.t -> int64
(** CFG-shape checksum: folds block count, per-block instruction counts by
    kind-insensitive position, and successor structure. Insensitive to debug
    lines, so comment-only source edits do not change it. *)
