(** Context-sensitive profile: a trie of function profiles keyed by calling
    context, as produced by CSSPGO's synchronized LBR + stack profiler.

    A context is a chain [(f0, s0) ; (f1, s1) ; ...] of (function,
    callsite-probe-id) pairs from the outermost caller, naming one inline
    instance of the leaf function — e.g. [main:3 @ foo:2 @ bar] in LLVM's
    notation. Root nodes hold the *base* (context-merged) profiles.

    Every node's [n_prof] is a probe entry, {!Counts}' layout at
    {!Probe_profile.shape}: the trie adds no count operations of its own.
    The trie supports the operations the §III.B pipeline needs:
    - accumulation of probe/call counts at a context,
    - cold-context trimming (merge into base) for profile-size control,
    - context promotion (a not-inlined context's subtree re-roots at the
      leaf function's base profile, used by the pre-inliner),
    - the pre-inliner's inline marks, persisted per context node. *)

type frame = Csspgo_ir.Guid.t * int
(** (function, callsite probe id in that function) *)

type node = {
  n_func : Csspgo_ir.Guid.t;
  mutable n_name : string;
  mutable n_inlined : bool;  (** pre-inliner decision for this context *)
  n_prof : Probe_profile.fentry;
  n_children : (frame_key, node) Hashtbl.t;
  mutable n_sub : int64;
      (** subtree total cached by {!trim_cold}; stale outside a trim *)
}

and frame_key = int * Csspgo_ir.Guid.t
(** (callsite probe id in the parent, callee guid) *)

type t = {
  roots : node Csspgo_ir.Guid.Tbl.t;
}

val create : unit -> t

val base : t -> Csspgo_ir.Guid.t -> name:string -> node
(** Base (context-less) node for a function, created on demand. *)

val attach :
  t -> parent:node option -> site:int -> Csspgo_ir.Guid.t -> name:string -> node
(** Find-or-create one trie step: the root for the guid when [parent] is
    [None] ([site] is ignored), else [parent]'s child at callsite probe
    [site]. The O(1) primitive the binary profile reader uses; [node_at]
    steps a whole path through it. *)

val node_at : t -> path:(frame * Csspgo_ir.Guid.t * string) list -> node option
(** Resolve a context: the path starts at a root function and each element
    is ((parent_func, callsite_probe), child_guid, child_name); [None] if
    the path is empty. Creates missing nodes. The first element's
    [parent_func] names the root. *)

val find_node : t -> leaf:Csspgo_ir.Guid.t -> (frame list -> bool) -> node option
(** First node for [leaf] whose full context satisfies the predicate. *)

val iter_nodes : t -> (frame list -> node -> unit) -> unit
(** Depth-first over all nodes; the frame list is the node's full context
    (outermost first, excluding the node itself). *)

val promote_to_base : t -> parent:node -> key:frame_key -> unit
(** Detach the child at [key] from [parent], merge its profile into the
    leaf function's base, and re-root its children under that base
    (recursively merging). Implements MoveContextProfileToBaseProfile.
    Counts merge by {!Counts.merge} at weight 1; the base keeps its
    checksum, or takes the first non-zero one it meets. *)

val trim_cold : t -> threshold:int64 -> int
(** Promote every context node (depth >= 1) whose subtree total is below
    [threshold] into the base profile. Returns the number of contexts
    removed. The §III.B scalability mitigation. Children are visited in
    sorted key order and roots are re-swept until nothing moves; the cost
    of one sweep is linear in the nodes plus the merges it does. *)

val copy : t -> t
(** A deep copy that keeps every table's iteration order, so a pass that
    walks the copy with [Hashtbl.iter] makes the same choices it would
    make on the original. *)

val n_nodes : t -> int
val size_bytes : t -> int
(** Rough serialized-size estimate, for the scalability experiment. *)

val total_samples : t -> int64
