(** DWARF-based profile correlation — the AutoFDO baseline (§II.A).

    Per-address execution totals are attributed to the (line, discriminator)
    of the innermost debug-info frame, taking the *maximum* across the
    instructions compiled from the same location (AutoFDO's heuristic for
    one-to-many code expansion). This is exactly where the §III.A hazards
    bite: code *merge* leaves one location claiming two blocks' counts, code
    *duplication* makes the max under-report the true sum, and code *motion*
    leaves a hot line anchored to an instruction that now runs cold.

    Call-site target counts and function head counts come from LBR branch
    records. Inline instances are merged into their origin function's flat
    profile (AutoFDO without inline replay; see DESIGN.md). *)

val correlate_agg :
  name_of:(Csspgo_ir.Guid.t -> string option) ->
  index:Bindex.t ->
  ?obs:Csspgo_obs.Metrics.t ->
  Csspgo_codegen.Mach.binary ->
  Ranges.agg ->
  Csspgo_profile.Line_profile.t
(** Correlate an online-built aggregate; [index] must be built on the
    binary itself, or [Invalid_argument] is raised.
    A guid [name_of] misses is named from the binary, else in hex. [obs]
    receives [dwarf-corr.addrs], [dwarf-corr.addrs-unmapped] (no
    instruction or no debug location at the sampled address) and
    [dwarf-corr.callsites], bumped once at the end. *)
