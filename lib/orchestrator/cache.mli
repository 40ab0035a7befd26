(** Content-addressed artifact cache.

    Entries are opaque byte payloads addressed by [(kind, key)]: [kind] names
    a stage family (["profile-run"], ["correlate"], ["final-build"], ...) and
    [key] is the list of content fingerprints the driver derives from source
    hashes, stage specs, and pseudo-probe checksums. The cache never
    interprets payloads — callers serialize (profiles as canonical
    {!Csspgo_profile.Text_io} text, everything else as [Marshal] images) and
    deserialize on the way out, so every hit hands back a fresh copy and
    entries can be shared freely across domains.

    A cache is an in-memory table, optionally backed by a directory of
    entry files. Disk entries carry an FNV-1a digest of their payload;
    a mismatch (truncation, bit-rot, tampering) counts as [corrupt] and
    degrades to a miss — the stage reruns and overwrites the bad entry,
    so poisoning can cost time but never correctness.

    All operations are thread-safe (one mutex per cache). *)

type t

val create : ?obs:Csspgo_obs.Metrics.t -> ?dir:string -> unit -> t
(** [create ~dir ()] backs the cache with directory [dir] (created if
    missing); omitting [dir] keeps the cache purely in-memory. With
    [?obs], every lookup/store also bumps the [cache.hit],
    [cache.miss], [cache.store] and [cache.poisoned] registry counters
    (handles resolved once here, not per operation). *)

val dir : t -> string option

val find : t -> kind:string -> key:string list -> string option
(** Look up a payload; checks memory first, then disk. Counts a hit or a
    miss; a disk entry failing its digest counts as corrupt (and a miss)
    and is deleted. *)

val store : t -> kind:string -> key:string list -> string -> unit
(** Insert a payload in memory and, when disk-backed, atomically
    (temp-file + rename) on disk. *)

val memo :
  t ->
  kind:string ->
  key:string list ->
  ser:('a -> string) ->
  de:(string -> 'a) ->
  (unit -> 'a) ->
  'a
(** [find] + deserialize, falling back to running the thunk and storing its
    serialization. A payload that [de] rejects counts as corrupt and falls
    back to the thunk — the {!Csspgo_core.Driver.Plan.hooks} contract. *)

val entry_path : t -> kind:string -> key:string list -> string option
(** Where the entry lives on disk (whether or not it exists yet);
    [None] for in-memory caches. Exposed for tests and tooling. *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  corrupt : int;  (** digest failures + undeserializable payloads *)
}

val stats : t -> stats
(** Snapshot of this cache's counters. *)

(** {1 Offline directory inspection} (the [cache] CLI subcommand) *)

type disk_stats = {
  d_entries : int;
  d_bytes : int;
  d_kinds : (string * int) list;  (** entry count per kind, sorted *)
}

val scan_dir : string -> disk_stats
val clear_dir : string -> int
(** Delete all cache entry files in a directory; returns how many. *)
