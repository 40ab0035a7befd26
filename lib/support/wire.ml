type error =
  | Bad_magic of { expected : string; got : string }
  | Unsupported_version of { version : int; max : int }
  | Truncated of string
  | Digest_mismatch of { section : int }
  | Malformed of string

let error_to_string = function
  | Bad_magic { expected; got } ->
      Printf.sprintf "bad magic: expected %S, got %S" expected got
  | Unsupported_version { version; max } ->
      Printf.sprintf "unsupported format version %d (this reader handles 1..%d)"
        version max
  | Truncated what -> Printf.sprintf "truncated input while reading %s" what
  | Digest_mismatch { section } ->
      Printf.sprintf "digest mismatch in section %d" section
  | Malformed what -> Printf.sprintf "malformed input: %s" what

exception Error of error

let fail e = raise (Error e)

type span = { s_tag : int; s_off : int; s_len : int }

module Enc = struct
  (* A byte buffer written at [pos]. A frame's encoder is sized exactly,
     so writing a frame never regrows it. *)
  type t = { mutable buf : Bytes.t; mutable pos : int }

  let sized n = { buf = Bytes.create n; pos = 0 }
  let create () = sized 256
  let length t = t.pos

  let reserve t n =
    if t.pos + n > Bytes.length t.buf then begin
      let b = Bytes.create (max (t.pos + n) (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 b 0 t.pos;
      t.buf <- b
    end

  let raw t c =
    if t.pos >= Bytes.length t.buf then reserve t 1;
    Bytes.unsafe_set t.buf t.pos c;
    t.pos <- t.pos + 1

  let byte t b = raw t (Char.chr (b land 0xff))

  (* Unsigned LEB128 over the 64-bit pattern: logical shifts, so negative
     int64s (checksums are arbitrary bit patterns) encode in 10 bytes. *)
  let varint64 t v =
    let v = ref v in
    let continue = ref true in
    while !continue do
      let b = Int64.to_int (Int64.logand !v 0x7fL) in
      v := Int64.shift_right_logical !v 7;
      if Int64.equal !v 0L then begin
        byte t b;
        continue := false
      end
      else byte t (b lor 0x80)
    done

  (* A non-negative int is the same LEB128 as its 64-bit pattern, so it
     encodes straight from the native int; only negative ints take the
     [Int64] path, which gives them their 10 bytes. *)
  let varint t v =
    if v < 0 then varint64 t (Int64.of_int v)
    else begin
      let v = ref v in
      while !v >= 0x80 do
        raw t (Char.unsafe_chr ((!v land 0x7f) lor 0x80));
        v := !v lsr 7
      done;
      raw t (Char.unsafe_chr !v)
    end

  let blit_string t s =
    let n = String.length s in
    reserve t n;
    Bytes.blit_string s 0 t.buf t.pos n;
    t.pos <- t.pos + n

  let string t s =
    varint t (String.length s);
    blit_string t s

  let append t e =
    reserve t e.pos;
    Bytes.blit e.buf 0 t.buf t.pos e.pos;
    t.pos <- t.pos + e.pos

  let contents t = Bytes.sub_string t.buf 0 t.pos
end

let varint_size v =
  if v < 0 then 10
  else begin
    let v = ref (v lsr 7) and n = ref 1 in
    while !v > 0 do
      v := !v lsr 7;
      incr n
    done;
    !n
  end

module Dec = struct
  type t = { buf : string; mutable pos : int; limit : int }

  let of_string s = { buf = s; pos = 0; limit = String.length s }

  let of_span s sp =
    if sp.s_off < 0 || sp.s_len < 0 || sp.s_off > String.length s - sp.s_len then
      invalid_arg "Wire.Dec.of_span: span outside the string";
    { buf = s; pos = sp.s_off; limit = sp.s_off + sp.s_len }
  let remaining t = t.limit - t.pos
  let at_end t = t.pos >= t.limit

  let byte t =
    if t.pos >= t.limit then fail (Truncated "byte");
    let b = Char.code t.buf.[t.pos] in
    t.pos <- t.pos + 1;
    b

  (* The general decoder: 7-bit groups up to shift 49 (56 bits) accumulate
     in a native int, and only the 9th and 10th bytes touch [Int64]. *)
  let varint64 t =
    let b0 = byte t in
    if b0 land 0x80 = 0 then Int64.of_int b0
    else begin
      let acc = ref (b0 land 0x7f) in
      let hi = ref 0L in
      let shift = ref 7 in
      let continue = ref true in
      while !continue do
        if !shift > 63 then fail (Malformed "varint longer than 10 bytes");
        let b = byte t in
        if !shift <= 49 then acc := !acc lor ((b land 0x7f) lsl !shift)
        else
          hi := Int64.logor !hi (Int64.shift_left (Int64.of_int (b land 0x7f)) !shift);
        shift := !shift + 7;
        if b land 0x80 = 0 then continue := false
      done;
      Int64.logor !hi (Int64.of_int !acc)
    end

  (* A varint of 9 or more bytes, from [start]: re-decoded by [varint64],
     which owns the 64-bit tail, the length limit and the range check. *)
  let varint_long t start =
    t.pos <- start;
    let v = varint64 t in
    let n = Int64.to_int v in
    if not (Int64.equal (Int64.of_int n) v) then
      fail (Malformed "varint exceeds the native int range");
    n

  (* Up to 8 bytes (56 bits) decode in a native int and allocate nothing;
     longer ones rewind to [varint_long], so values, the final cursor and
     errors are exactly [varint64]'s. *)
  let varint t =
    let start = t.pos in
    let acc = ref 0 and shift = ref 0 and more = ref true in
    while !more && !shift <= 49 do
      let b = byte t in
      acc := !acc lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      more := b land 0x80 <> 0
    done;
    if !more then varint_long t start else !acc

  let string t =
    let n = varint t in
    if n < 0 || n > remaining t then fail (Truncated "string");
    let s = String.sub t.buf t.pos n in
    t.pos <- t.pos + n;
    s

  (* The bounds-checked primitive, not [String.get_int64_le]: a call into
     the stdlib would box the word. The mask test reads the same in either
     byte order, and the bytes themselves are read one by one. *)
  external get_int64 : string -> int -> int64 = "%caml_string_get64"

  let msb_mask = 0x8080808080808080L

  (* Bulk decode of [n] varints into [a.(0 .. n-1)]. Varint streams here
     (sample-log arenas) are dominated by runs of small values, so the hot
     path loads 8 bytes at once: a word with no continuation bit set is 8
     complete single-byte varints. Otherwise one varint is decoded from the
     8 bytes known to be in bounds, unchecked; one that runs past them, and
     every varint near the buffer tail, takes [varint], so error behavior
     is identical to [varint] per element. Nothing here allocates unless a
     varint is 9 bytes or longer. *)
  let varint_into t a n =
    if n < 0 || n > Array.length a then
      invalid_arg "Wire.Dec.varint_into: count out of range";
    let buf = t.buf in
    let i = ref 0 in
    while !i < n do
      let pos = t.pos in
      if pos + 8 > t.limit then begin
        a.(!i) <- varint t;
        incr i
      end
      else if !i + 8 <= n && Int64.logand (get_int64 buf pos) msb_mask = 0L then begin
        let i0 = !i in
        for k = 0 to 7 do
          Array.unsafe_set a (i0 + k) (Char.code (String.unsafe_get buf (pos + k)))
        done;
        t.pos <- pos + 8;
        i := i0 + 8
      end
      else begin
        let acc = ref 0 and k = ref 0 and more = ref true in
        while !more && !k < 8 do
          let b = Char.code (String.unsafe_get buf (pos + !k)) in
          acc := !acc lor ((b land 0x7f) lsl (7 * !k));
          incr k;
          more := b land 0x80 <> 0
        done;
        if !more then a.(!i) <- varint t
        else begin
          a.(!i) <- !acc;
          t.pos <- pos + !k
        end;
        incr i
      end
    done
end

type section = { tag : int; len : int; write : Enc.t -> unit }

let section ~tag e = { tag; len = Enc.length e; write = (fun out -> Enc.append out e) }

let section_sized ~tag ~len write =
  if len < 0 then invalid_arg "Wire.section_sized: negative length";
  { tag; len; write }

let digest ~tag b off len = Fnv.bytes (Fnv.int Fnv.init tag) b ~off ~len

let section_digest blob sp =
  digest ~tag:sp.s_tag (Bytes.unsafe_of_string blob) sp.s_off sp.s_len

(* The one framer: the blob's size is known before a byte is written, so
   header, section heads, payloads and digest trailers all go straight
   into one exact-size buffer, and each digest is taken over the payload
   where it lies. *)
let frame ~magic ~version sections =
  if String.length magic <> 4 then invalid_arg "Wire.frame: magic must be 4 bytes";
  let size =
    List.fold_left
      (fun acc s -> acc + varint_size s.tag + varint_size s.len + s.len + 8)
      (4 + varint_size version + varint_size (List.length sections))
      sections
  in
  let e = Enc.sized size in
  Enc.blit_string e magic;
  Enc.varint e version;
  Enc.varint e (List.length sections);
  List.iter
    (fun s ->
      Enc.varint e s.tag;
      Enc.varint e s.len;
      let off = e.Enc.pos in
      s.write e;
      if e.Enc.pos - off <> s.len then
        invalid_arg
          (Printf.sprintf "Wire.frame: section %d wrote %d bytes, declared %d" s.tag
             (e.Enc.pos - off) s.len);
      let d = digest ~tag:s.tag e.Enc.buf off s.len in
      for i = 0 to 7 do
        Enc.byte e (Int64.to_int (Int64.shift_right_logical d (8 * i)))
      done)
    sections;
  Bytes.unsafe_to_string e.Enc.buf

let sniff ~magic s =
  String.length s >= String.length magic && String.sub s 0 (String.length magic) = magic

(* The one unframer: validates the whole envelope and hands back each
   section as a span of the blob, so no payload is copied. *)
let unframe ~magic ~max_version s =
  try
    if String.length s < 4 then
      fail (Bad_magic { expected = magic; got = s });
    let got = String.sub s 0 4 in
    if not (String.equal got magic) then fail (Bad_magic { expected = magic; got });
    let d = Dec.of_string s in
    d.Dec.pos <- 4;
    let version = Dec.varint d in
    if version < 1 || version > max_version then
      fail (Unsupported_version { version; max = max_version });
    let nsections = Dec.varint d in
    if nsections < 0 then fail (Malformed "negative section count");
    let sections = ref [] in
    for i = 0 to nsections - 1 do
      let tag = Dec.varint d in
      let len = Dec.varint d in
      if len < 0 || len > Dec.remaining d then fail (Truncated "section payload");
      let sp = { s_tag = tag; s_off = d.Dec.pos; s_len = len } in
      d.Dec.pos <- d.Dec.pos + len;
      let want = section_digest s sp in
      if Dec.remaining d < 8 then fail (Truncated "section digest");
      let got = ref 0L in
      for j = 0 to 7 do
        got :=
          Int64.logor !got (Int64.shift_left (Int64.of_int (Dec.byte d)) (8 * j))
      done;
      if not (Int64.equal !got want) then fail (Digest_mismatch { section = i });
      sections := sp :: !sections
    done;
    if not (Dec.at_end d) then
      fail (Malformed "trailing bytes after the last section");
    Ok (version, List.rev !sections)
  with Error e -> Result.error e
