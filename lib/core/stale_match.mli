(** Stale-profile matching: re-anchor a profile collected on binary N onto
    the IR of binary N+1 (§III.A's source-drift scenario, cf. LLVM's
    stale-profile matcher).

    The matcher never invents or silently loses a count: every input count
    is either transferred to a location of the target program (possibly at
    a different probe id / line key — "fuzzily reassigned") or explicitly
    dropped, and the per-function {!verdict}s account for both sides, so
    [v_total_in = v_recovered + v_dropped] always holds.

    Both flat shapes re-anchor call sites with one callee-anchor rule: old
    call sites, keyed by their dominant (highest-count) callee, pair up in
    key order with the new function's call sites statically calling the
    same GUID; a key that is not an anchor moves by the delta of the
    nearest preceding anchor, measured on the probe id or the line number.
    Each shape then validates the result its own way.

    {b Pseudo-probe profiles} use probe-ID anchor matching under a
    function-checksum guard: when the CFG-shape checksum recorded in the
    profile still matches the target function, every probe id is carried
    over unchanged ([Exact]); on a mismatch, callsite probes are
    re-anchored by callee and must land on a callsite probe of the new
    function, and block probes keep their id when it still names a block
    in the new function. The matched profile is stamped with the {e new}
    checksum, so downstream annotation ({!Annotate.probes}) accepts it.

    {b Line profiles} (the DWARF/AutoFDO shape) have no checksums: keys are
    re-anchored by callee unless every key still exists, and a shifted key
    that misses falls back to the nearest valid (line, discriminator)
    within a small radius. This decays under drift — which is the paper's
    point.

    {b Context tries} apply the probe matcher at every context node and
    remap the (callsite, callee) frame keys along each context chain,
    taking the children's frame keys as extra anchor evidence; a node
    whose chain can no longer be spelled in the new binary drops with its
    subtree.

    Every matcher builds its verdicts through one per-function
    accumulator: a trie function aggregates all of its context nodes, a
    flat-profile function is one node. Functions whose GUID no longer
    exists (renamed or removed) are [Dropped] wholesale. All outputs are
    deterministic: verdicts are sorted by function name (equal names by
    descending GUID), and matched profiles serialize canonically through
    {!Csspgo_profile.Text_io}. The line matcher walks its input in the
    profile's canonical order; the probe matchers walk their tables in
    [Hashtbl] order, which fixes the matched trie's insertion order. *)

type status = Exact | Fuzzy | Dropped

val status_name : status -> string

type verdict = {
  v_name : string;
  v_guid : Csspgo_ir.Guid.t;
  v_status : status;
  v_total_in : int64;  (** counts in the input profile for this function *)
  v_recovered : int64;  (** transferred onto the target program *)
  v_dropped : int64;  (** invariant: [v_total_in = v_recovered + v_dropped] *)
}

type report = {
  r_verdicts : verdict list;  (** sorted by name, then by descending guid *)
  r_exact : int;
  r_fuzzy : int;
  r_dropped : int;
  r_total_in : int64;
  r_recovered : int64;
  r_dropped_counts : int64;
}

val report_to_string : report -> string
(** Multi-line human rendering: one row per verdict plus a totals line. *)

val recovery_rate : report -> float
(** [r_recovered / r_total_in]; 1.0 when the input profile is empty. *)

(** Each matcher takes the {e pre-optimization} IR of the new build as
    [target] — probe matchers require {!Pseudo_probe.insert} to have run on
    it (checksums and probe ids present), the line matcher only needs debug
    locations — and emits [stale.*] counters to [obs]. *)

val match_probe :
  ?obs:Csspgo_obs.Metrics.t ->
  target:Csspgo_ir.Program.t ->
  Csspgo_profile.Probe_profile.t ->
  Csspgo_profile.Probe_profile.t * report

val match_line :
  ?obs:Csspgo_obs.Metrics.t ->
  target:Csspgo_ir.Program.t ->
  Csspgo_profile.Line_profile.t ->
  Csspgo_profile.Line_profile.t * report

val match_ctx :
  ?obs:Csspgo_obs.Metrics.t ->
  target:Csspgo_ir.Program.t ->
  Csspgo_profile.Ctx_profile.t ->
  Csspgo_profile.Ctx_profile.t * report
(** Per-function verdicts aggregate over a function's context nodes:
    [Exact] iff every node matched exactly, [Dropped] iff every node
    dropped, [Fuzzy] otherwise. Pre-inliner marks ([n_inlined]) are
    preserved on matched nodes. *)

val route :
  ?obs:Csspgo_obs.Metrics.t ->
  target:Csspgo_ir.Program.t ->
  Csspgo_profile.Text_io.profile * Csspgo_profile.Probe_profile.t option ->
  (Csspgo_profile.Text_io.profile * Csspgo_profile.Probe_profile.t option)
  * report
(** Route a sampled profile of any kind, and its optional flat quality
    baseline, onto [target]: the kind's matcher above for the profile,
    {!match_probe} for the flat. The report and the [stale.*] counters
    on [obs] cover the profile only; the flat's verdicts would count the
    same functions twice. *)
