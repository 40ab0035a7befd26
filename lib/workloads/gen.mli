(** Random MiniC program generator for property-based differential testing
    and the fuzzing campaign runner.

    Generated programs always terminate: loops are counted ([while (i < C)]
    with a dedicated induction variable), the static call graph is acyclic
    (a function may only call later-defined functions), and every array
    index is total (the VM wraps indices modulo the array size).

    Termination is guaranteed, but running time is only *probabilistically*
    bounded: calls may appear inside loop nests (under a tight per-function
    budget), so a run can multiply loop trip counts across the call chain.
    Harnesses must execute generated programs under a fuel limit and treat
    exhaustion as a discard.

    The same seed always yields the same source text. *)

val random_source : ?n_funcs:int -> ?size:int -> seed:int64 -> unit -> string
(** A full program with a [main(a, b)] entry point and two global arrays,
    [g0] and [g1]. [size] (default 2)
    scales statements per block and the per-function call budget; 0 gives
    near-minimal straight-line functions. *)
