(** The VMC executor with a Skylake-flavoured performance and PMU model.

    Cost model (cycles): ALU 1 (mul 3, div/rem 20 — 4 when the divisor is a
    compile-time constant), memory 3, spill traffic 1 (L1-resident,
    store-forwarded), select/mov 1, call 14 / tail-call 10 (+1 per
    spill-slot argument), ret 5, taken
    jump +2, indirect switch +4, instrumentation counter increment 5, i-cache
    miss +20 (direct-mapped, 32 KiB, 64 B lines).

    PMU model: a sample fires every [sample_period] cycles. Each sample
    snapshots the LBR ring (last [lbr_depth] *taken* branches, including
    calls and returns, as source/target address pairs) and walks the frame
    chain for a synchronized stack sample. Without [pebs], the stack lags
    the LBR by one control transfer with probability [skid_prob] — the
    sampling-skid artifact of §III.B. Frames entered through tail calls
    replace their caller, so the caller is missing from the walk (the
    TCE missing-frame problem). *)

type pmu = {
  sample_period : int;  (** cycles between samples; 0 disables sampling *)
  lbr_depth : int;      (** 16 or 32 *)
  pebs : bool;
  skid_prob : float;
  seed : int64;
}

val default_pmu : pmu
(** period 9973 (prime, to avoid lockstep), depth 16, PEBS on. *)

type sink = {
  on_sample : lbr:int array -> lbr_len:int -> stack:int array -> stack_len:int -> unit;
  on_labels : Csspgo_support.Label_set.t -> unit;
}
(** Streaming sample consumer. The PMU flushes each sample into reusable
    scratch buffers and invokes [on_sample] with the valid prefix lengths.
    [lbr] is the ring oldest-first as one flat int array of [lbr_len]
    entries: entry [i]'s branch address at [lbr.(2 * i)] and its target
    at [lbr.(2 * i + 1)], the layout of a {!Sample_log} record, so no
    entry is boxed on its way to a sink. [stack.(0 .. stack_len-1)] is the
    frame walk leaf-first. The arrays are scratch — they are overwritten
    by the next sample — so a sink must copy anything it keeps. The flush
    itself allocates nothing. With [debug_poison], both scratches are
    filled with [min_int] after every flush so aliasing sinks fail
    loudly.

    [on_labels] is the request-label channel: when [run] is given
    [?labels], the PMU announces the request's label set through it once,
    before the first sample, and every sample flushed afterwards belongs
    to that label set. Recording sinks ({!Sample_log.sink}) intern the set
    and stamp samples with the interned id; sinks that do not care pass
    {!no_labels}. *)

val no_labels : Csspgo_support.Label_set.t -> unit
(** [ignore] with the sink's label-channel type — for sinks indifferent to
    request labels. *)

type result = {
  cycles : int64;
  instructions : int64;
  ret_value : int64;
  n_samples : int;             (** samples taken, with or without a sink *)
  counters : int64 array;      (** instrumentation counters *)
  icache_misses : int64;
  taken_branches : int64;
  mispredicts : int64;   (** per-branch 2-bit dynamic predictor misses *)
  value_profiles : (int, (int64, int64) Hashtbl.t) Hashtbl.t;
      (** per-site value histograms from [Val_prof] instrumentation *)
}

exception Trap of string
(** Unmapped jump target, missing entry function, a register outside
    [0, n_phys) or a negative spill slot in the binary, or fuel exhausted. *)

val run :
  ?pmu:pmu option ->
  ?globals_init:(string * int64 array) list ->
  ?args:int64 list ->
  ?fuel:int64 ->
  ?sink:sink ->
  ?labels:Csspgo_support.Label_set.t ->
  ?debug_poison:bool ->
  ?obs:Csspgo_obs.Metrics.t ->
  Csspgo_codegen.Mach.binary ->
  entry:string ->
  result
(** Execute [entry] with [args]. Globals not listed in [globals_init] are
    zero-initialized at their declared sizes; listed arrays override
    contents (truncated/padded to the declared size). [fuel] (default 2e9)
    caps the instructions executed; values above [max_int] are clamped to
    it.

    With [sink], every sample is streamed through it and no per-sample
    allocation happens inside the VM; without one, samples are still taken
    (same cycles and RNG draws) and counted in [n_samples], but nothing is
    kept. [debug_poison] (default off) poisons the scratch buffers after
    each flush.

    [obs] records per-run telemetry ([vm.runs], [vm.samples-flushed],
    [vm.instructions], [vm.cycles], and a [vm.samples-per-mcycle]
    histogram) once at the end of the run — the interpreter loop itself is
    never instrumented.

    Each instruction is decoded once per run into a closure that performs
    its op, specialised on its operands' kinds. A straight-line run of
    instructions, through the control transfer that ends it, is charged in
    one step when its worst case (static cycles, 14 per conditional
    branch, 20 per i-cache line) cannot reach the next sample and the fuel
    covers it; otherwise the loop steps one instruction at a time. Both
    paths call the same closures, so cycles, counters, LBR entries, stack
    walks and traps are those of stepping every instruction.

    The interpreter loop allocates nothing per instruction apart from
    [Val_prof] captures. Its counters are immediate ints, converted to
    [int64] only in the result. Globals are unboxed [int64] words in byte
    strings; immediates and the registers and spill slots of all frames
    live in off-heap [int64] arrays. The register file grows by doubling:
    each frame owns its [n_phys] registers followed by [max bf_nslots 1]
    spill slots at a base offset, the callee just above its caller, and a
    spill slot past its frame's end reads 0 and drops writes. *)
