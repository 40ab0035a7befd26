(** Dense per-binary index tables for streaming sample consumption.

    The binary's [addr_index] is a hashtable, and the hot paths of sample
    aggregation and context reconstruction (Algorithm 1) used to pay one or
    more hash lookups per LBR entry ([inst_at] for branch classification,
    [call_inst_before], per-range instruction walks). Text addresses are
    compact, so all of it flattens into arrays computed once per binary:
    address → instruction index, per-instruction branch kind, containing
    function, callsite-probe level paths (the inline expansion of a call
    instruction), and static callees. Keys are stable instruction indices —
    the same motivation as stale-profile matching's move away from raw
    addresses (PAPERS.md). *)

module Mach = Csspgo_codegen.Mach

type kind = K_call | K_tail_call | K_ret | K_other

type t

val create : Mach.binary -> t
(** O(text size) time and space; build once per profiled binary. *)

val binary : t -> Mach.binary

val idx_of_addr : t -> int -> int
(** Instruction index at an address, or -1 if the address maps to no
    instruction (mirrors [Mach.addr_index]). *)

val inst : t -> int -> Mach.inst
(** The instruction at a (valid) index. *)

val kind_of_addr : t -> int -> kind
(** Branch kind of the instruction at an address; [K_other] when unmapped
    (matches Algorithm 1's [classify]). *)

val func_guid_of_addr : t -> int -> Csspgo_ir.Guid.t option
(** Containing function of an address. Dense lookup for instruction
    addresses, falling back to [Mach.func_index_of_addr]'s range search for
    addresses between instructions — exact same answers as the original. *)

val call_idx_before : t -> int -> int
(** Index of the [MCall] instruction immediately preceding the instruction
    at a return address, or -1 (the dense form of [call_inst_before]). *)

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
