(** Compact, replayable PMU sample log: a sequence of record windows,
    each a [[lo, hi)] range of an unboxed [int array] block holding whole
    records (one per sample: LBR length, src/tgt pairs, stack length,
    frame addresses). Closed windows are immutable; the one open block is
    written only by the log that owns it, and only past its last record.
    Recording fills blocks of a fixed capacity (32,768 ints), closing one
    when the next record does not fit, so a growing log copies nothing. Cuts and joins
    ({!split}, {!concat}, {!append}, {!slice_by_label}, {!unlabeled},
    {!decode_chunks}) hand out windows onto existing blocks instead of
    copying records, so a log that shares a block with another is never
    changed by the other's later {!add}.

    A log is the only stored form of a sample stream: the VM keeps no
    samples itself, so every consumer that needs a second look at the
    stream replays a log — notably context reconstruction, whose
    missing-frame table must be complete before the first sample is
    attributed. No per-sample arrays, no tuple boxing, and [Marshal]-safe
    for the plan cache.

    Every sample additionally carries a request {!Csspgo_support.Label_set}
    (tenant, endpoint, experiment arm). Label sets are interned per log to
    dense ids and stored as run-length (id, count) pairs over the stream, so
    stamping a sample in the steady state is a single counter bump — the
    recording path stays allocation-free. A log that never saw a label is
    one all-empty run and behaves (and frames) exactly like a pre-label
    log.

    The run stream is canonical: no two adjacent runs carry the same set.
    Every cut of a log ({!split}, {!decode_chunks}) and every join
    ({!append}, {!concat}) carries labels through one run window that
    re-interns each set into the receiving log and merges equal runs at
    the boundary, so cutting a log and joining the pieces gives back the
    same runs, and the same v3 label section. {!slice_by_label} moves
    each run whole into its set's slice. *)

type t

val create : unit -> t

val add : t -> lbr:int array -> lbr_len:int -> stack:int array -> stack_len:int -> unit
(** Append one sample (copies the scratch contents; sink-safe). [lbr] is
    {!Machine.sink}'s flat layout, [lbr_len] entries of (branch, target)
    at [2i] and [2i + 1] — the record's own layout, so the copy into the
    open block is a blit. The sample is stamped with the log's current
    label set (initially empty; see {!set_label}). *)

val set_label : t -> Csspgo_support.Label_set.t -> unit
(** Set the label set stamped on subsequently added samples. Interns the
    set on first sight; repeat announcements of the same set are a hash
    lookup, and stamping itself never allocates. *)

val sink : t -> Machine.sink
(** A recording sink: [Machine.run ~sink:(sink log)] fills [log]. The
    sink's label channel is {!set_label}, so [Machine.run ~labels] stamps
    every sample of that run. *)

val iter :
  t -> (lbr:int array -> lbr_len:int -> stack:int array -> stack_len:int -> unit) -> unit
(** Replay the log in collection order through a sink-shaped callback. The
    callback receives reusable scratch buffers, exactly like a live
    [Machine.sink] — same flat LBR layout, same copy discipline. Each
    sample is two blits out of its block; the replay allocates nothing per
    sample once the scratches fit the longest record. Labels are not
    replayed: correlation is label-blind, slicing happens on the log
    ({!slice_by_label}) before replay. *)

val append : into:t -> t -> unit
(** Concatenate [src]'s record stream onto [into] ([into] takes windows
    onto [src]'s blocks, no record is copied; [src] is untouched). Replaying the result is replaying [into] then [src] —
    the fleet collector's per-version log reassembly primitive. Labels
    ride along: [src]'s ids are remapped through [into]'s intern table and
    its runs spliced on (merged at the boundary when the label does not
    change). *)

val concat : t list -> t
(** The parts' record streams in order as one log of windows onto the
    parts' blocks: the result replays like [append]ing each part onto a
    fresh log, labels included. A single part is
    returned as is, not copied; [[]] gives an empty log. *)

val n_samples : t -> int

val words : t -> int
(** Words of the log's records, plus its open block's spare capacity and
    its label runs' capacity. Exact for a compacted or decoded log: the
    records' ints, the runs and a 4-word header. *)

val compact : t -> unit
(** Trim the open block to its records and the label runs to their length
    (call before marshaling). Closed blocks are left as they are. *)

(** {1 Labels} *)

val is_labeled : t -> bool
(** Does any sample carry a non-empty label set? *)

val labels : t -> Csspgo_support.Label_set.t list
(** Distinct label sets observed, in order of first appearance in the
    stream — the deterministic slicing order. [[]] for an empty log. *)

val label_counts : t -> (Csspgo_support.Label_set.t * int) list
(** Sample count per distinct label set, in {!labels} order — the
    observed mix weights. A label-free non-empty log reports the single
    implicit slice [(empty, n_samples)]. *)

val slice_by_label : t -> (Csspgo_support.Label_set.t * t) list
(** Partition into one sub-log per distinct label set, in {!labels}
    order. Each slice's record stream preserves collection order, carries
    exactly the samples stamped with that set, and is itself labeled with
    it, as windows onto the log's blocks. The slices are a whole-sample
    partition of the log: appending
    sample counts reconstructs {!label_counts}, and correlating the
    slices and merging at weight 1 reconstructs the blended profile
    (oracle family 10). *)

val unlabeled : t -> t
(** The same record stream (windows onto the same blocks) with every label
    dropped — what a pre-label collector would have recorded of the same
    run. *)

(** {1 Serialization}

    Two interchangeable on-disk forms share one record layout. The text
    form is the debuggable golden format: a [samplelog] header, then one
    line per sample ([lbr_len src tgt ... stack_len addr ...], ints
    space-separated); it is label-free. The binary form is a digest-framed
    {!Csspgo_support.Wire} envelope (magic ["CSLG"]): version 2 frames one
    varint-packed section per chunk of {!chunk_samples} whole samples, so
    every chunk is self-delimited, carries its own FNV trailer, and
    decodes independently — the shard unit for parallel correlation.
    Version 3 appends exactly one trailing label section (the distinct
    canonical label-set encodings in first-appearance order, then the
    (set, count) runs) to the v2 chunk sections. {!encode} picks v2 for
    label-free logs automatically, so unlabeled streams are byte-identical
    to the pre-label format; v1 blobs (one section for the whole log)
    still decode. Both forms round-trip exactly: [of_text (to_text t)] and
    [decode (encode t)] reproduce the log byte-for-byte under
    re-serialization. *)

val magic : string
(** ["CSLG"], the binary blob prefix. *)

val chunk_samples : int
(** Default samples per chunk (and per {!split} shard). *)

val tag_log : int
(** Section tag of a record chunk (1). *)

val to_text : t -> string

val of_text : string -> (t, Csspgo_support.Wire.error) result
(** Parse the text form; structural problems come back as
    [Error (Malformed _)]. *)

val encode : ?chunk:int -> ?frame:[ `Auto | `V3 ] -> t -> string
(** Binary blob, one section per [chunk] (default {!chunk_samples})
    samples; chunk boundaries walk whole records, never dividing a sample.
    One pass over the records sizes the blob, then every section is
    written straight into it.
    An empty log frames a single empty chunk. [`Auto] (default) frames
    labeled logs as v3 and label-free logs as v2; [`V3] forces a label
    section even for a label-free log.
    @raise Invalid_argument when [chunk] is not positive. *)

val decode : string -> (t, Csspgo_support.Wire.error) result
(** Decode a v1, v2 or v3 blob into one log (chunks concatenated in frame
    order, labels reattached). Every section's record stream is validated
    against its declared record ints, and every byte of a label section (set
    encodings canonical and distinct, run indices in range, run counts
    positive and non-mergeable, totals matching the chunk sections) is
    validated before any label is attached — corruption yields a typed
    [Wire] error, never a mislabeled sample. *)

val decode_chunks : string -> (t list, Csspgo_support.Wire.error) result
(** Like {!decode} but keeps the chunk partition: one log per section, in
    frame order, each section read in place from the blob into its own
    block — the fused drain-and-correlate path feeds these straight into
    shards without ever materializing the concatenated log. A v1
    blob yields a single chunk. Label runs are split along the chunk
    boundaries, so each chunk carries its own samples' labels. *)

val framing_version : string -> (int, Csspgo_support.Wire.error) result
(** The blob's frame version (1, 2 or 3), without decoding any payload. *)

val split : ?chunk:int -> t -> t list
(** Partition into sub-logs of [chunk] (default {!chunk_samples}) samples
    each (the last one short); [[]] for an empty log. Boundaries walk
    whole records — exactly {!encode}'s chunking — so appending the parts
    in order reproduces the log (labels included), and the partition is a
    pure function of the log's contents (never of a job count). The parts
    are windows onto the log's blocks.
    @raise Invalid_argument when [chunk] is not positive. *)

val is_binary : string -> bool
(** Does the data start with {!magic}? *)
