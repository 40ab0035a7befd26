(** Span tracing exported as Chrome trace-event JSON (loadable in
    [chrome://tracing] and Perfetto).

    A trace is a set of {e tracks}; each track is a logical timeline with
    its own {!Clock.cursor} and is owned by exactly one executor at a time
    — the orchestrator gives every plan its own track (tid = plan index),
    so begin/end nesting and tick order inside a track never depend on the
    domain schedule. Track creation and export are mutex-protected; event
    emission on a track is unsynchronized by design (single owner).

    Determinism: with a {!Clock.fixed} clock, exported bytes are a pure
    function of the per-track event sequences — tracks are sorted by
    [(tid, name)], per-track timestamps come from the track's private
    cursor, and the JSON printer is canonical. The same plan set therefore
    exports byte-identical traces at [-j 1/2/4]. Wall-clock traces add
    per-domain scheduler tracks and real timestamps, and make no
    reproducibility claim. *)

type t

val create : ?clock:Clock.t -> unit -> t
(** Default clock: {!Clock.wall}. *)

val deterministic : t -> bool
(** True iff the trace runs on a fixed clock. Instrumentation that is
    inherently schedule-dependent (per-domain scheduler spans) must check
    this and stay silent on deterministic traces. *)

type track

val track : t -> tid:int -> name:string -> track
(** Register a new track. [tid] becomes the Chrome thread id; [name] the
    thread name. Callers pick stable tids (plan index) for deterministic
    traces. *)

val instant : track -> string -> unit

val with_span : track -> string -> (unit -> 'a) -> 'a
(** A span named by the string around [f], ended on exceptions too. *)

val n_events : t -> int

val to_json : t -> Json.t

val to_chrome_json : t -> string
(** The trace-event JSON object ([{"traceEvents": [...]}]); each track
    contributes a thread_name metadata record followed by its events in
    emission order. Export after the traced work completes. *)
