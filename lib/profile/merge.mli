(** Weighted profile merging — the fleet/continuous-profiling primitive:
    combine profiles collected on many instances (and, after stale
    matching, many binary versions) into one.

    Merging is defined per shape and obeys four laws, each checked by the
    QCheck battery and the fleet fuzz oracle against canonical
    {!Text_io.to_string} bytes:

    - {e commutative}: [a ⊕ b = b ⊕ a];
    - {e associative}: [(a ⊕ b) ⊕ c = a ⊕ (b ⊕ c)];
    - {e weight-linear}: merging [p] at weight [w] equals merging [w]
      copies of [p] at weight 1;
    - {e identity on empty}: merging the empty profile changes nothing,
      and merging [p] into a fresh empty profile at weight 1 reproduces
      [p] byte-for-byte.

    Count semantics: probe/line/call/head counts are scaled by the weight
    and added, by the one count merge every shape shares,
    {!Counts.merge} (totals follow, maintained by the accumulation API).
    Metadata must merge through commutative-monoid operations for the laws
    to hold: checksums combine by {e unsigned} max (0 = absent, so a real
    checksum always wins over a missing one), names by minimum non-empty
    string, and context [n_inlined] marks by logical or. Context tries
    unify structurally via {!Ctx_profile.attach} — same (callsite, callee)
    chain, same node.

    The operations mutate [into] and never the source, so a fold over
    sources is linear in their total size. Order independence of the
    result (not just its serialization) is what lets the fleet collector
    reduce per-shard partial merges in parallel. *)

val probe : into:Probe_profile.t -> weight:int64 -> Probe_profile.t -> unit
val line : into:Line_profile.t -> weight:int64 -> Line_profile.t -> unit
val ctx : into:Ctx_profile.t -> weight:int64 -> Ctx_profile.t -> unit
(** Per-shape accumulation. [weight] must be non-negative; weight 0 is a
    no-op (no counts and no structure land in [into], so zero-weight
    sources cannot perturb the canonical text).
    @raise Invalid_argument on a negative weight. *)

val into : into:Text_io.profile -> weight:int64 -> Text_io.profile -> unit
(** Kind-dispatched accumulation.
    @raise Invalid_argument when the two profiles are of different kinds. *)

val empty : Text_io.kind -> Text_io.profile
(** A fresh empty profile of the kind — the merge identity. *)

val weighted : kind:Text_io.kind -> (int64 * Text_io.profile) list -> Text_io.profile
(** Merge a weighted list into a fresh profile. The inputs are untouched;
    the result is independent of list order. Every profile must be of
    [kind] ({!into}'s kind check applies). *)

val weighted_pairs :
  kind:Text_io.kind ->
  (int64 * Text_io.profile * Probe_profile.t option) list ->
  Text_io.profile * Probe_profile.t option
(** {!weighted} over the profiles, paired with the same weighted merge of
    their flat quality baselines when every entry carries one ([None]
    when any entry has none). *)

val copy : Text_io.profile -> Text_io.profile
(** [weighted] of the singleton at weight 1: a deep copy. *)

val flatten_ctx : Ctx_profile.t -> Probe_profile.t
(** Context-merged view of a trie: every node's counts folded into a flat
    probe profile per function — the quality-baseline shape ("CSSPGO" row
    of Table I) for callers that hold only the trie. *)
