(** Label-sliced profiles: one profile per request
    {!Csspgo_support.Label_set} (tenant, endpoint, experiment arm), each
    slice carrying its observed sample weight. This is the post-hoc view a
    labeled sample log correlates into — the multi-tenant counterpart of a
    single blended profile.

    All slices of a bundle are of one {!Text_io.kind}, labels are
    distinct, and slice order is the deterministic first-appearance order
    of the source stream. Re-combination goes through {!Merge}, so the
    merge laws carry over: {!blend} of slices produced by partitioning one
    log reconstructs the blended profile byte-for-byte for the probe and
    context shapes (counts are additive over any whole-sample partition).
    The line shape takes a per-line {e max} across instructions during
    correlation, which is not additive at profile level — exact line
    re-blends must merge the slices' range aggregates and correlate once
    (see [Fleet.Build.correlate_labeled]); {!blend} on line slices is the
    merge-law combination of the slice profiles themselves. *)

type slice = {
  sl_label : Csspgo_support.Label_set.t;
  sl_weight : int64;  (** observed sample count of the slice *)
  sl_profile : Text_io.profile;
}

type t

val make : kind:Text_io.kind -> slice list -> t
(** Bundle slices, preserving order.
    @raise Invalid_argument on a kind mismatch, a duplicate label, or a
    negative weight. *)

val slices : t -> slice list
val n_slices : t -> int

val total_weight : t -> int64
(** Sum of slice weights — the blended profile's sample mass. *)

val find : t -> Csspgo_support.Label_set.t -> slice option

val blend : t -> Text_io.profile
(** Merge every slice at weight 1 into a fresh profile — each slice
    already carries exactly its observed sample mass, so weight 1 {e is}
    the observed-weight blend. Slice order cannot matter (merge is
    commutative). *)

val project : t -> keys:string list -> t
(** Re-key every slice by {!Csspgo_support.Label_set.project} onto [keys]
    and merge slices whose projections collide (weights add, profiles
    merge at weight 1) — e.g. collapse per-(tenant, endpoint) slices down
    to per-tenant. Result order is first appearance of each projected
    label. *)

(** {1 Text form}

    A [labeledprofile] header, then per slice a [label] record (display
    form and weight) followed by the slice's canonical {!Text_io} text:
    {v
    labeledprofile <kind> <nslices>
    label <k=v,...|-> weight=<n>
    <profile text...>
    v}
    Canonical and byte-stable for equal bundles, like {!Text_io}. The form
    is write-only: a digest and display form that nothing parses back. *)

val to_string : t -> string

