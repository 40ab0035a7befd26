module Label_set = Csspgo_support.Label_set

(* A log is a sequence of record windows, [lo, hi) of an [int array]
   block, each holding whole records (one flat-int record per sample).
   Closed windows are immutable. The open window is [start, len) of
   [data], the one block this log writes to, and only at [len] and
   beyond: a window handed to another log (a cut, a join, a slice) stays
   valid however either log grows, so cutting and joining copy no record.
   Labels ride alongside as run-length-encoded (label id, sample count)
   pairs over the stream, plus a per-log interning table mapping dense ids
   to canonical label-set bytes. Id 0 is always the empty set, so an
   unlabeled log is one all-zero run and costs two ints total. *)
type win = { a : int array; lo : int; hi : int }

type t = {
  mutable wins : win array;  (* closed windows, in stream order *)
  mutable nwins : int;
  mutable data : int array;  (* the open block *)
  mutable start : int;       (* the open window is [start, len) of [data] *)
  mutable len : int;
  mutable n : int;
  mutable lsets : string array;  (* id -> Label_set.canonical *)
  mutable lset_n : int;
  intern : (string, int) Hashtbl.t;
  mutable runs : int array;  (* flat (label id, count) pairs *)
  mutable runs_len : int;    (* ints used; runs always cover exactly n samples *)
  mutable cur : int;         (* label id stamped on the next sample *)
}

let no_win = { a = [||]; lo = 0; hi = 0 }

let create () =
  let intern = Hashtbl.create 8 in
  Hashtbl.replace intern "" 0;
  {
    wins = [||];
    nwins = 0;
    data = [||];
    start = 0;
    len = 0;
    n = 0;
    lsets = [| "" |];
    lset_n = 1;
    intern;
    runs = [||];
    runs_len = 0;
    cur = 0;
  }

(* Recording fills blocks of [block_ints] ints. A block closes when the
   next record does not fit (a record longer than a block gets a block of
   its own), so growing the log copies nothing. *)
let block_ints = 1 lsl 15

(* [Array.blit] stores through [caml_modify] once the target has reached
   the major heap, as the blocks and the replay scratches soon do; a loop
   over [int array]s stores directly. *)
let blit_ints (src : int array) src_pos (dst : int array) dst_pos n =
  for k = 0 to n - 1 do
    dst.(dst_pos + k) <- src.(src_pos + k)
  done

(* Append window [lo, hi) of [a] to the closed windows. *)
let push_win t a lo hi =
  if hi > lo then begin
    let k = t.nwins in
    if k = Array.length t.wins then begin
      let w = Array.make (if k < 4 then 4 else 2 * k) no_win in
      Array.blit t.wins 0 w 0 k;
      t.wins <- w
    end;
    t.wins.(k) <- { a; lo; hi };
    t.nwins <- k + 1
  end

(* Close the open window; later records go on at [len] in the same
   block. *)
let close_open t =
  push_win t t.data t.start t.len;
  t.start <- t.len

(* Every window of the stream in order, the open one last. *)
let windows t =
  if t.len > t.start then begin
    let w = Array.make (t.nwins + 1) no_win in
    Array.blit t.wins 0 w 0 t.nwins;
    w.(t.nwins) <- { a = t.data; lo = t.start; hi = t.len };
    w
  end
  else Array.sub t.wins 0 t.nwins

(* The offset just past the record at [p]. *)
let next_record (a : int array) p =
  let p = p + 1 + (2 * a.(p)) in
  p + 1 + a.(p)

let intern_canonical t canon =
  match Hashtbl.find_opt t.intern canon with
  | Some id -> id
  | None ->
      let id = t.lset_n in
      if id >= Array.length t.lsets then begin
        let a = Array.make (max 4 (2 * Array.length t.lsets)) "" in
        Array.blit t.lsets 0 a 0 t.lset_n;
        t.lsets <- a
      end;
      t.lsets.(id) <- canon;
      t.lset_n <- id + 1;
      Hashtbl.replace t.intern canon id;
      id

let set_label t ls = t.cur <- intern_canonical t (Label_set.canonical ls)

let ensure_runs t extra =
  let need = t.runs_len + extra in
  if need > Array.length t.runs then begin
    let a = Array.make (max need (max 16 (2 * Array.length t.runs))) 0 in
    blit_ints t.runs 0 a 0 t.runs_len;
    t.runs <- a
  end

(* The one writer of the run stream: [n] more samples labeled [id] extend
   the last run in place when the label has not changed (the
   zero-allocation steady state), else open a run. So a stream never holds
   two adjacent runs of one id. *)
let push_run t id n =
  if t.runs_len >= 2 && t.runs.(t.runs_len - 2) = id then
    t.runs.(t.runs_len - 1) <- t.runs.(t.runs_len - 1) + n
  else begin
    ensure_runs t 2;
    t.runs.(t.runs_len) <- id;
    t.runs.(t.runs_len + 1) <- n;
    t.runs_len <- t.runs_len + 2
  end

(* A position in a run stream: the offset of run [at_run] in [runs], and
   the samples the runs before it cover. *)
type run_cursor = { mutable at_run : int; mutable at_sample : int }

let runs_start () = { at_run = 0; at_sample = 0 }

(* The label window of a record slice: push onto [into] the runs covering
   samples [first, first + count) of [src], each id re-interned into
   [into] through its canonical bytes. The walk starts at [at], which
   must not lie past [first], and leaves it on the run holding the
   window's end, so consecutive windows walk the stream once. *)
let copy_runs ~into src ~at ~first ~count =
  let stop = first + count in
  let more = ref true in
  while !more && at.at_run < src.runs_len do
    let pos = at.at_sample and cnt = src.runs.(at.at_run + 1) in
    let lo = if pos > first then pos else first
    and hi = if pos + cnt < stop then pos + cnt else stop in
    if hi > lo then
      push_run into (intern_canonical into src.lsets.(src.runs.(at.at_run))) (hi - lo);
    if pos + cnt <= stop then begin
      at.at_run <- at.at_run + 2;
      at.at_sample <- pos + cnt
    end
    else more := false
  done

(* The sink's flat LBR layout is the record's own, so a sample is two
   copies into the open block. *)
let add t ~lbr ~lbr_len ~stack ~stack_len =
  let need = 2 + (2 * lbr_len) + stack_len in
  if t.len + need > Array.length t.data then begin
    close_open t;
    t.data <- Array.make (if need > block_ints then need else block_ints) 0;
    t.start <- 0;
    t.len <- 0
  end;
  let d = t.data in
  let p = t.len in
  d.(p) <- lbr_len;
  blit_ints lbr 0 d (p + 1) (2 * lbr_len);
  let p = p + 1 + (2 * lbr_len) in
  d.(p) <- stack_len;
  blit_ints stack 0 d (p + 1) stack_len;
  t.len <- p + 1 + stack_len;
  t.n <- t.n + 1;
  push_run t t.cur 1

let sink t =
  {
    Machine.on_sample =
      (fun ~lbr ~lbr_len ~stack ~stack_len -> add t ~lbr ~lbr_len ~stack ~stack_len);
    on_labels = set_label t;
  }

let iter t f =
  let lbr = ref (Array.make 32 0) in
  let stack = ref (Array.make 64 0) in
  Array.iter
    (fun w ->
      let d = w.a in
      let p = ref w.lo in
      while !p < w.hi do
        let ln = d.(!p) in
        if 2 * ln > Array.length !lbr then
          lbr := Array.make (max (2 * ln) (2 * Array.length !lbr)) 0;
        blit_ints d (!p + 1) !lbr 0 (2 * ln);
        p := !p + 1 + (2 * ln);
        let sn = d.(!p) in
        if sn > Array.length !stack then
          stack := Array.make (max sn (2 * Array.length !stack)) 0;
        blit_ints d (!p + 1) !stack 0 sn;
        p := !p + 1 + sn;
        f ~lbr:!lbr ~lbr_len:ln ~stack:!stack ~stack_len:sn
      done)
    (windows t)

(* Replaying the result is replaying [into] then [src], labels included:
   [src]'s windows follow [into]'s, and its runs are re-interned into
   [into] and merge at the boundary. *)
let append ~into src =
  let ws = windows src and n = src.n in
  close_open into;
  Array.iter (fun w -> push_win into w.a w.lo w.hi) ws;
  copy_runs ~into src ~at:(runs_start ()) ~first:0 ~count:n;
  into.n <- into.n + n

let concat = function
  | [ t ] -> t
  | parts ->
      let out = create () in
      List.iter (fun p -> append ~into:out p) parts;
      out

let n_samples t = t.n

let words t =
  let closed = ref 0 in
  for i = 0 to t.nwins - 1 do
    closed := !closed + t.wins.(i).hi - t.wins.(i).lo
  done;
  !closed + Array.length t.data - t.start + Array.length t.runs + 4

let compact t =
  if Array.length t.data > t.len - t.start then begin
    t.data <- Array.sub t.data t.start (t.len - t.start);
    t.len <- t.len - t.start;
    t.start <- 0
  end;
  if Array.length t.wins > t.nwins then t.wins <- Array.sub t.wins 0 t.nwins;
  if Array.length t.runs > t.runs_len then t.runs <- Array.sub t.runs 0 t.runs_len

(* --- labels ---------------------------------------------------------- *)

let is_labeled t =
  let rec go i = i < t.runs_len && (t.runs.(i) <> 0 || go (i + 2)) in
  go 0

(* Distinct label ids in order of first appearance in the run stream —
   the canonical on-disk (and therefore cross-log deterministic) label
   order; interning order is not observable. *)
let used_ids t =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let i = ref 0 in
  while !i < t.runs_len do
    let id = t.runs.(!i) in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      out := id :: !out
    end;
    i := !i + 2
  done;
  List.rev !out

let labels t = List.map (fun id -> Label_set.of_canonical t.lsets.(id)) (used_ids t)

let label_counts t =
  let counts = Hashtbl.create 8 in
  let i = ref 0 in
  while !i < t.runs_len do
    let id = t.runs.(!i) in
    Hashtbl.replace counts id
      (t.runs.(!i + 1) + Option.value (Hashtbl.find_opt counts id) ~default:0);
    i := !i + 2
  done;
  List.map
    (fun id -> (Label_set.of_canonical t.lsets.(id), Hashtbl.find counts id))
    (used_ids t)

(* Cut the record stream into consecutive segments and route each, as
   windows onto [t]'s blocks, into a log: [next ()] gives the next
   segment's length in records and the log that receives it. Segments
   follow whole records, so no window ever divides a sample. The one walk
   behind {!split} and {!slice_by_label}. *)
let route t next =
  let left = ref 0 and dst = ref t in
  Array.iter
    (fun w ->
      let seg = ref w.lo and p = ref w.lo in
      while !p < w.hi do
        if !left = 0 then begin
          let k, d = next () in
          left := k;
          dst := d
        end;
        p := next_record w.a !p;
        decr left;
        if !left = 0 then begin
          push_win !dst w.a !seg !p;
          seg := !p
        end
      done;
      push_win !dst w.a !seg w.hi)
    (windows t)

let slice_by_label t =
  let slices =
    List.map
      (fun id ->
        let s = create () in
        set_label s (Label_set.of_canonical t.lsets.(id));
        (id, s))
      (used_ids t)
  in
  (* Each run's records go whole into its label's slice. *)
  let i = ref 0 in
  route t (fun () ->
      let id = t.runs.(!i) and cnt = t.runs.(!i + 1) in
      i := !i + 2;
      let s = List.assoc id slices in
      s.n <- s.n + cnt;
      push_run s s.cur cnt;
      (cnt, s));
  List.map
    (fun (id, s) -> (Label_set.of_canonical t.lsets.(id), s))
    slices

let unlabeled t =
  let u = create () in
  Array.iter (fun w -> push_win u w.a w.lo w.hi) (windows t);
  u.n <- t.n;
  if t.n > 0 then push_run u 0 t.n;
  u

(* ------------------------------------------------------------------ *)
(* Serialization. Both forms carry the log's record stream verbatim
   (lbr_len, pairs, stack_len, addrs — one record per sample), so a
   decoded log replays the identical sample stream. The text form is
   label-free (labels are a binary-framing concern); v3 blobs add one
   label section. *)

module Wire = Csspgo_support.Wire

let magic = "CSLG"
let version = 3
let tag_log = 1
let tag_labels = 2
let chunk_samples = 4096

let to_text t =
  let buf = Buffer.create (16 * t.n) in
  Buffer.add_string buf (Printf.sprintf "samplelog %d\n" t.n);
  Array.iter
    (fun w ->
      let p = ref w.lo in
      while !p < w.hi do
        let q = next_record w.a !p in
        Buffer.add_string buf (string_of_int w.a.(!p));
        for i = !p + 1 to q - 1 do
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int w.a.(i))
        done;
        Buffer.add_char buf '\n';
        p := q
      done)
    (windows t);
  Buffer.contents buf

(* Rebuild through [add] so block growth (and thus [words]/marshaling)
   matches a live recording of the same stream. *)
let rebuild records =
  let t = create () in
  List.iter
    (fun (lbr, stack) ->
      add t ~lbr ~lbr_len:(Array.length lbr / 2) ~stack ~stack_len:(Array.length stack))
    (List.rev records);
  t

let of_text s =
  let malformed what = Error (Wire.Malformed what) in
  match String.split_on_char '\n' s with
  | [] -> malformed "empty sample log"
  | header :: lines -> (
      match String.split_on_char ' ' header with
      | [ "samplelog"; n ] -> (
          match int_of_string_opt n with
          | None -> malformed "bad sample count in samplelog header"
          | Some n when n < 0 -> malformed "negative sample count"
          | Some n -> (
              let records = ref [] in
              let bad = ref None in
              let nrec = ref 0 in
              List.iteri
                (fun i line ->
                  if !bad = None && not (String.equal line "") then begin
                    let ints =
                      String.split_on_char ' ' line
                      |> List.filter (fun w -> not (String.equal w ""))
                      |> List.map int_of_string_opt
                    in
                    if List.exists Option.is_none ints then
                      bad := Some (Printf.sprintf "bad integer on line %d" (i + 2))
                    else
                      let ints = List.filter_map Fun.id ints in
                      match ints with
                      | ln :: rest when ln >= 0 && List.length rest >= 2 * ln -> (
                          let lbr = Array.make (2 * ln) 0 in
                          let rest = ref rest in
                          for j = 0 to (2 * ln) - 1 do
                            match !rest with
                            | x :: r ->
                                lbr.(j) <- x;
                                rest := r
                            | [] -> assert false
                          done;
                          match !rest with
                          | sn :: addrs when sn >= 0 && List.length addrs = sn ->
                              incr nrec;
                              records := (lbr, Array.of_list addrs) :: !records
                          | _ ->
                              bad :=
                                Some
                                  (Printf.sprintf "bad stack record on line %d" (i + 2)))
                      | _ ->
                          bad :=
                            Some (Printf.sprintf "bad LBR record on line %d" (i + 2))
                  end)
                lines;
              match !bad with
              | Some what -> malformed what
              | None ->
                  if !nrec <> n then
                    malformed
                      (Printf.sprintf "header declares %d samples, found %d" n !nrec)
                  else Ok (rebuild !records)))
      | _ -> malformed "missing samplelog header")

(* v2 framing: one envelope section per chunk of [chunk] samples, each
   section varint-packed exactly like the single v1 section (sample count,
   arena length, arena words). The envelope already gives every section
   its own FNV trailer and length prefix, so chunks are self-delimited and
   independently decodable — the shard unit for parallel correlation. An
   empty log frames one empty chunk so every blob has at least one
   section.

   v3 framing appends one label section after the chunks: the distinct
   canonical label-set encodings referenced by the run stream, in order of
   first appearance, then the (set index, sample count) runs themselves.
   An unlabeled log frames as plain v2 by default, so label-free streams
   are byte-identical to the pre-label format — and a forced-v3 blob of
   an unlabeled stream decodes and re-frames back to those very v2 bytes
   (the lossless downgrade). *)
let label_section t =
  let ids = used_ids t in
  let index = Hashtbl.create 8 in
  List.iteri (fun i id -> Hashtbl.replace index id i) ids;
  let e = Wire.Enc.create () in
  Wire.Enc.varint e (List.length ids);
  List.iter (fun id -> Wire.Enc.string e t.lsets.(id)) ids;
  Wire.Enc.varint e (t.runs_len / 2);
  let i = ref 0 in
  while !i < t.runs_len do
    Wire.Enc.varint e (Hashtbl.find index t.runs.(!i));
    Wire.Enc.varint e t.runs.(!i + 1);
    i := !i + 2
  done;
  Wire.section ~tag:tag_labels e

(* One pass over the records sizes every chunk (samples, arena ints,
   varint bytes); the framer then has each chunk write its varints
   straight into the blob, from one cursor that walks the windows in
   stream order as the framer asks for the chunks in turn. *)
let encode ?(chunk = chunk_samples) ?(frame = `Auto) t =
  if chunk <= 0 then invalid_arg "Sample_log.encode: chunk must be positive";
  let v =
    match frame with
    | `Auto -> if is_labeled t then 3 else 2
    | `V3 -> 3
  in
  let ws = windows t in
  let sizes = ref [] and n0 = ref 0 and ints = ref 0 and bytes = ref 0 in
  let close () =
    sizes := (!n0, !ints, !bytes) :: !sizes;
    n0 := 0;
    ints := 0;
    bytes := 0
  in
  Array.iter
    (fun w ->
      let p = ref w.lo in
      while !p < w.hi do
        let q = next_record w.a !p in
        for i = !p to q - 1 do
          bytes := !bytes + Wire.varint_size w.a.(i)
        done;
        ints := !ints + (q - !p);
        p := q;
        incr n0;
        if !n0 = chunk then close ()
      done)
    ws;
  if !n0 > 0 || !sizes = [] then close ();
  let wi = ref 0 and p = ref (if Array.length ws > 0 then ws.(0).lo else 0) in
  let write_ints e k =
    let k = ref k in
    while !k > 0 do
      let w = ws.(!wi) in
      let stop = if !p + !k < w.hi then !p + !k else w.hi in
      for i = !p to stop - 1 do
        Wire.Enc.varint e w.a.(i)
      done;
      k := !k - (stop - !p);
      p := stop;
      if stop = w.hi && !wi + 1 < Array.length ws then begin
        incr wi;
        p := ws.(!wi).lo
      end
    done
  in
  let sections =
    List.rev_map
      (fun (n0, ints, bytes) ->
        Wire.section_sized ~tag:tag_log
          ~len:(Wire.varint_size n0 + Wire.varint_size ints + bytes)
          (fun e ->
            Wire.Enc.varint e n0;
            Wire.Enc.varint e ints;
            write_ints e ints))
      !sizes
  in
  let sections = if v = 3 then sections @ [ label_section t ] else sections in
  Wire.frame ~magic ~version:v sections

(* One varint-packed chunk payload, read in place -> a log whose one
   window is the decoded arena. Framing is already validated by the
   envelope; this checks the declared record structure walks the
   declared arena exactly (a well-digested section can still carry an
   inconsistent record stream). *)
let decode_section s sp =
  let d = Wire.Dec.of_span s sp in
  let n = Wire.Dec.varint d in
  let len = Wire.Dec.varint d in
  if n < 0 || len < 0 then raise (Wire.Error (Wire.Malformed "negative log size"));
  (* Every varint takes at least one byte. *)
  if len > Wire.Dec.remaining d then
    raise (Wire.Error (Wire.Malformed "arena longer than its section"));
  let data = Array.make len 0 in
  Wire.Dec.varint_into d data len;
  if not (Wire.Dec.at_end d) then
    raise (Wire.Error (Wire.Malformed "trailing bytes in log section"));
  let overrun () =
    raise (Wire.Error (Wire.Malformed "record stream overruns arena"))
  in
  let p = ref 0 in
  for _ = 1 to n do
    if !p >= len then overrun ();
    let ln = data.(!p) in
    if ln < 0 || ln > len then raise (Wire.Error (Wire.Malformed "bad LBR length"));
    p := !p + 1 + (2 * ln);
    if !p >= len then overrun ();
    let sn = data.(!p) in
    if sn < 0 || sn > len then
      raise (Wire.Error (Wire.Malformed "bad stack length"));
    p := !p + 1 + sn
  done;
  if !p <> len then
    raise (Wire.Error (Wire.Malformed "record stream does not cover arena"));
  let t = create () in
  push_win t data 0 len;
  t.n <- n;
  if n > 0 then push_run t 0 n;
  t

(* The v3 label section -> (canonical set strings, flat run array). Every
   byte is checked before any label is attached to a sample: junk set
   encodings, duplicate table entries, out-of-range indices, zero-count or
   adjacent-equal runs, and run totals that disagree with the chunk
   sections are all typed [Wire] errors — corruption can fail a decode,
   never mislabel a sample. *)
let decode_label_section ~total d =
  let nsets = Wire.Dec.varint d in
  if nsets < 0 || nsets > total + 1 then
    raise (Wire.Error (Wire.Malformed "bad label-set count"));
  let sets = Array.init nsets (fun _ -> Wire.Dec.string d) in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      ignore (Label_set.of_canonical s);
      if Hashtbl.mem seen s then
        raise (Wire.Error (Wire.Malformed "duplicate label set in table"));
      Hashtbl.replace seen s ())
    sets;
  let nruns = Wire.Dec.varint d in
  if nruns < 0 || nruns > total then
    raise (Wire.Error (Wire.Malformed "bad label-run count"));
  let runs = Array.make (2 * nruns) 0 in
  let covered = ref 0 in
  for i = 0 to nruns - 1 do
    let idx = Wire.Dec.varint d in
    let cnt = Wire.Dec.varint d in
    if idx < 0 || idx >= nsets then
      raise (Wire.Error (Wire.Malformed "label run references unknown set"));
    if cnt <= 0 then raise (Wire.Error (Wire.Malformed "empty label run"));
    if i > 0 && runs.(2 * (i - 1)) = idx then
      raise (Wire.Error (Wire.Malformed "adjacent label runs with equal set"));
    runs.(2 * i) <- idx;
    runs.((2 * i) + 1) <- cnt;
    covered := !covered + cnt
  done;
  if not (Wire.Dec.at_end d) then
    raise (Wire.Error (Wire.Malformed "trailing bytes in label section"));
  if !covered <> total then
    raise
      (Wire.Error
         (Wire.Malformed
            (Printf.sprintf "label runs cover %d of %d samples" !covered total)));
  (sets, runs)

(* Attach a decoded label table to [t] (whose runs are the implicit
   all-empty run): intern each section set and rewrite the run stream. *)
let attach_labels t (sets, runs) =
  let ids = Array.map (intern_canonical t) sets in
  t.runs <- [||];
  t.runs_len <- 0;
  let i = ref 0 in
  while !i < Array.length runs do
    push_run t ids.(runs.(!i)) runs.(!i + 1);
    i := !i + 2
  done

(* Decode every section of a blob, version-dispatched: v1 blobs must carry
   exactly one log section, v2 one log section per chunk, v3 the v2 chunk
   sections followed by exactly one trailing label section. *)
let decode_sections s =
  match Wire.unframe ~magic ~max_version:version s with
  | Error e -> Error e
  | Ok (v, sections) -> (
      try
        let log_sections, label_section =
          match (v, List.rev sections) with
          | 3, sp :: rest when sp.Wire.s_tag = tag_labels -> (List.rev rest, Some sp)
          | 3, _ ->
              raise
                (Wire.Error (Wire.Malformed "v3 blob missing trailing label section"))
          | _, _ -> (sections, None)
        in
        let parts =
          List.map
            (fun sp ->
              if sp.Wire.s_tag <> tag_log then
                raise
                  (Wire.Error
                     (Wire.Malformed
                        (Printf.sprintf "unknown section tag %d" sp.Wire.s_tag)));
              decode_section s sp)
            log_sections
        in
        let parts =
          match (v, parts) with
          | _, [] -> raise (Wire.Error (Wire.Malformed "no log sections"))
          | 1, [ part ] -> [ part ]
          | 1, _ ->
              raise
                (Wire.Error
                   (Wire.Malformed
                      (Printf.sprintf "expected exactly one log section, got %d"
                         (List.length parts))))
          | _, parts -> parts
        in
        let labels =
          match label_section with
          | None -> None
          | Some sp ->
              let total =
                List.fold_left (fun acc part -> acc + part.n) 0 parts
              in
              Some (decode_label_section ~total (Wire.Dec.of_span s sp))
        in
        Ok (parts, labels)
      with Wire.Error e -> Error e)

(* Split a decoded label run stream along the chunk partition, attaching
   each chunk its own window of the runs. *)
let distribute_labels parts (sets, runs) =
  let holder = create () in
  holder.n <- List.fold_left (fun acc p -> acc + p.n) 0 parts;
  attach_labels holder (sets, runs);
  let at = runs_start () and first = ref 0 in
  List.map
    (fun part ->
      part.runs <- [||];
      part.runs_len <- 0;
      copy_runs ~into:part holder ~at ~first:!first ~count:part.n;
      first := !first + part.n;
      part)
    parts

let decode s =
  match decode_sections s with
  | Error e -> Error e
  | Ok (parts, labels) -> (
      let log = concat parts in
      match labels with
      | None -> Ok log
      | Some lab ->
          (try
             attach_labels log lab;
             Ok log
           with Wire.Error e -> Error e))

let decode_chunks s =
  match decode_sections s with
  | Error e -> Error e
  | Ok (parts, None) -> Ok parts
  | Ok (parts, Some lab) -> (
      try Ok (distribute_labels parts lab) with Wire.Error e -> Error e)

let framing_version s =
  Result.map fst (Wire.unframe ~magic ~max_version:version s)

let split ?(chunk = chunk_samples) t =
  if chunk <= 0 then invalid_arg "Sample_log.split: chunk must be positive";
  let out = ref [] in
  let at = runs_start () and first = ref 0 in
  route t (fun () ->
      let k = if t.n - !first < chunk then t.n - !first else chunk in
      let part = create () in
      part.n <- k;
      copy_runs ~into:part t ~at ~first:!first ~count:k;
      first := !first + k;
      out := part :: !out;
      (k, part));
  List.rev !out

let is_binary s = Wire.sniff ~magic s
