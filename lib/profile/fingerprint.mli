(** Per-function profile fingerprints: a 64-bit FNV digest of everything a
    profile says about one function — CFG checksum, head/entry count, and
    every (location, count) and callsite record, context frames included
    for trie profiles. Two profiles assign a function equal fingerprints
    iff their canonical text agrees on that function.

    Incremental PGO rebuilds ([Core.Driver.Plan]) key the whole-binary
    cache on {!merged}, so a refreshed but equal profile reuses the cached
    artifact; which functions recompile is decided by each function's
    annotated IR digest ([Ir.Func.digest]), not by comparing
    fingerprints. *)

val per_func : Text_io.profile -> (Csspgo_ir.Guid.t * int64) list
(** One (guid, fingerprint) pair per function mentioned by the profile,
    sorted by guid. For context tries every node contributes to its leaf
    function's fingerprint, tagged with the full context chain. *)

val merged : Text_io.profile -> int64
(** Whole-profile digest: FNV over the sorted {!per_func} list. Equal to
    [merged] of another profile iff no function drifted. *)
