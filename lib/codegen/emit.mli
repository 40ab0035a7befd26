(** Binary emission ("linking"): lays out all functions, assigns byte
    addresses, resolves intra-function branch targets, and materializes the
    metadata sections — symbol table, line table (debug info), pseudo-probe
    records anchored at the address of the probe's next real instruction.

    Every binary is built with the production -O2 setup: tail-call
    elimination ({!Isel.select}), hot/cold function splitting, and a
    profile-guided function order when a profile is present (hot functions
    packed together); cold split parts of all functions are placed after
    the last hot function. *)

type options = { layout : [ `Hot_path | `Ext_tsp ] (** block layout algorithm *) }

val default_options : options
(** Ext-TSP layout (the paper enables Ext-TSP for all variants). *)

val emit : options:options -> Csspgo_ir.Program.t -> Mach.binary
