(** Loop unrolling by body replication. The loop body (all blocks of a small
    natural loop) is cloned once; original back edges enter the clone and the
    clone's back edges return to the original header, so every exit check is
    preserved and the transformation is valid for any trip count. Two
    iterations then execute per back-edge round trip, halving taken branches
    on the hot path once layout straightens the chain.

    This is the canonical *code duplication* hazard of §III.A: cloned
    instructions keep their (line, discriminator), so DWARF correlation's
    max-heuristic reports roughly half the true line frequency, while cloned
    pseudo-probes keep their id and probe correlation sums the copies. *)

val run : Csspgo_ir.Func.t -> bool
