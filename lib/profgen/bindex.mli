(** The one address map of profile correlation.

    Every correlator — line, probe and context — reads the binary through
    this index, built once per profiled binary: the hot paths of sample
    aggregation and context reconstruction (Algorithm 1) pay an array load
    per LBR entry, where a search over the binary would pay a log. Text
    addresses are compact, so all of it flattens into arrays: address →
    instruction index, address → containing function over every hot and
    cold range, per-instruction branch kind, probe records, callsite-probe
    level paths (the inline expansion of a call instruction) and static
    callees. Keys are stable instruction indices — the same motivation as
    stale-profile matching's move away from raw addresses (PAPERS.md). *)

module Mach = Csspgo_codegen.Mach

type kind = K_call | K_tail_call | K_ret | K_other

type t

val create : Mach.binary -> t
(** O(text size) time and space; build once per profiled binary. *)

val binary : t -> Mach.binary

val idx_of_addr : t -> int -> int
(** Instruction index at an address, or -1 if the address maps to no
    instruction (the dense form of [Mach.idx_of_addr]). *)

val inst : t -> int -> Mach.inst
(** The instruction at a (valid) index. *)

val kind_of_addr : t -> int -> kind
(** Branch kind of the instruction at an address; [K_other] when unmapped
    (matches Algorithm 1's [classify]). *)

val func_guid_of_addr : t -> int -> Csspgo_ir.Guid.t option
(** Containing function of any byte of its hot or cold range, instruction
    or not; [None] for padding between ranges and outside the text. *)

val entry_func : t -> int -> int
(** Index into [funcs] of the function whose first instruction is at an
    address, or -1. *)

val call_idx_before : t -> int -> int
(** Index of the [MCall] instruction immediately preceding the instruction
    at a return address, or -1. *)

val container : t -> int -> Csspgo_ir.Guid.t
(** Guid of the function containing the instruction at an index. *)

val level_path : t -> int -> (Csspgo_ir.Guid.t * int) list
(** Outermost-first (function, callsite-probe) pairs describing the inline
    expansion of the call instruction at an index, precomputed; [[]] for
    non-call instructions. *)

val callee : t -> int -> Csspgo_ir.Guid.t option
(** Static callee of the call/tail-call instruction at an index. *)

val cs_probe : t -> int -> int

val iter_range : t -> int * int -> (int -> unit) -> unit
(** Iterate the indices of instructions with [lo <= addr <= hi], in address
    order; a [lo] that maps to no instruction yields nothing. A walk stops
    after 100,001 instructions, since a corrupt log's range can span the
    whole text. *)

val iter_probes : t -> int * int -> (Mach.probe_rec -> unit) -> unit
(** The probe records anchored at the instructions {!iter_range} visits,
    by address, then id; nothing when [lo] maps to no instruction. *)
