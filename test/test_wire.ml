(* Differential tests and allocation guards for the wire kernels: the
   FNV-1a digest, LEB128 encode, the bulk varint decoder and the framer
   and unframer, which write and read every section in place. Each kernel
   is compared against its plain form, kept here as the reference. *)
open Csspgo_support

module Ref = struct
  let prime = 0x100000001B3L

  let fnv_string h s =
    let h = ref h in
    String.iter
      (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
      s;
    !h

  (* LEB128 of the 64-bit pattern, one [Int64] step per byte. *)
  let leb128 v =
    let b = Buffer.create 10 in
    let v = ref v in
    let continue = ref true in
    while !continue do
      let x = Int64.to_int (Int64.logand !v 0x7fL) in
      v := Int64.shift_right_logical !v 7;
      if Int64.equal !v 0L then begin
        Buffer.add_char b (Char.chr x);
        continue := false
      end
      else Buffer.add_char b (Char.chr (x lor 0x80))
    done;
    Buffer.contents b

  let enc_varint v = leb128 (Int64.of_int v)

  (* The decoder cursor and the bulk decoder as they were before the
     native paths: a boxed word, closures per varint. *)
  type cur = { buf : string; mutable pos : int; limit : int }

  let fail e = raise (Wire.Error e)

  let byte t =
    if t.pos >= t.limit then fail (Wire.Truncated "byte");
    let b = Char.code t.buf.[t.pos] in
    t.pos <- t.pos + 1;
    b

  let varint64 t =
    let b0 = byte t in
    if b0 land 0x80 = 0 then Int64.of_int b0
    else begin
      let acc = ref (b0 land 0x7f) in
      let hi = ref 0L in
      let shift = ref 7 in
      let continue = ref true in
      while !continue do
        if !shift > 63 then fail (Wire.Malformed "varint longer than 10 bytes");
        let b = byte t in
        if !shift <= 49 then acc := !acc lor ((b land 0x7f) lsl !shift)
        else hi := Int64.logor !hi (Int64.shift_left (Int64.of_int (b land 0x7f)) !shift);
        shift := !shift + 7;
        if b land 0x80 = 0 then continue := false
      done;
      Int64.logor !hi (Int64.of_int !acc)
    end

  let varint t =
    let v = varint64 t in
    let n = Int64.to_int v in
    if not (Int64.equal (Int64.of_int n) v) then
      fail (Wire.Malformed "varint exceeds the native int range");
    n

  let msb_mask = 0x8080808080808080L

  let varint_into t a n =
    let i = ref 0 in
    while !i < n do
      if !i + 8 <= n && t.pos + 8 <= t.limit then begin
        let w = String.get_int64_le t.buf t.pos in
        let byte_at k = Int64.to_int (Int64.shift_right_logical w (8 * k)) land 0xff in
        if Int64.equal (Int64.logand w msb_mask) 0L then begin
          for k = 0 to 7 do
            a.(!i + k) <- byte_at k
          done;
          t.pos <- t.pos + 8;
          i := !i + 8
        end
        else begin
          let rec term k =
            if k >= 8 then -1 else if byte_at k land 0x80 = 0 then k else term (k + 1)
          in
          match term 0 with
          | -1 ->
              a.(!i) <- varint t;
              incr i
          | last ->
              let v = ref 0 in
              for k = last downto 0 do
                v := (!v lsl 7) lor (byte_at k land 0x7f)
              done;
              a.(!i) <- !v;
              t.pos <- t.pos + last + 1;
              incr i
        end
      end
      else begin
        a.(!i) <- varint t;
        incr i
      end
    done
end

(* The envelope assembled from copies: each section head and payload
   appended to a growing buffer, each digest over a payload string. *)
let ref_frame ~magic ~version sections =
  let b = Buffer.create 64 in
  Buffer.add_string b magic;
  let varint v = Buffer.add_string b (Ref.enc_varint v) in
  varint version;
  varint (List.length sections);
  List.iter
    (fun (tag, payload) ->
      varint tag;
      varint (String.length payload);
      Buffer.add_string b payload;
      let d = Ref.fnv_string (Fnv.int Fnv.init tag) payload in
      for i = 0 to 7 do
        Buffer.add_char b (Char.chr (Int64.to_int (Int64.shift_right_logical d (8 * i)) land 0xff))
      done)
    sections;
  Buffer.contents b

let boundaries =
  [ 0; 1; 127; 128; 16383; 16384; (1 lsl 56) - 1; 1 lsl 56; max_int; min_int; -1 ]

let enc_varint v =
  let e = Wire.Enc.create () in
  Wire.Enc.varint e v;
  Wire.Enc.contents e

(* A decode's observable result: values written, final cursor, typed
   error. *)
let decode_new s n =
  let d = Wire.Dec.of_string s in
  let a = Array.make n 0 in
  let err =
    match Wire.Dec.varint_into d a n with () -> None | exception Wire.Error e -> Some e
  in
  (a, String.length s - Wire.Dec.remaining d, err)

let decode_ref s n =
  let c = { Ref.buf = s; pos = 0; limit = String.length s } in
  let a = Array.make n 0 in
  let err =
    match Ref.varint_into c a n with () -> None | exception Wire.Error e -> Some e
  in
  (a, c.pos, err)

(* [Dec.varint] until the input ends or an error: values, cursor, error. *)
let each_new s =
  let d = Wire.Dec.of_string s in
  let rec go acc =
    if Wire.Dec.at_end d then (List.rev acc, None)
    else
      match Wire.Dec.varint d with
      | v -> go (v :: acc)
      | exception Wire.Error e -> (List.rev acc, Some e)
  in
  let vs, err = go [] in
  (vs, String.length s - Wire.Dec.remaining d, err)

let each_ref s =
  let c = { Ref.buf = s; pos = 0; limit = String.length s } in
  let rec go acc =
    if c.pos >= c.limit then (List.rev acc, None)
    else
      match Ref.varint c with
      | v -> go (v :: acc)
      | exception Wire.Error e -> (List.rev acc, Some e)
  in
  let vs, err = go [] in
  (vs, c.pos, err)

let test_boundaries () =
  List.iter
    (fun v ->
      let name = string_of_int v in
      Alcotest.(check string) (name ^ " bytes") (Ref.enc_varint v) (enc_varint v);
      (* Alone (the cursor path) and followed by eight single-byte values
         (the word paths). *)
      List.iter
        (fun (s, n) ->
          Alcotest.(check bool) (name ^ " decode") true (decode_new s n = decode_ref s n);
          Alcotest.(check bool) (name ^ " value") true
            (let a, pos, err = decode_new s n in
             err = None && a.(0) = v && pos = String.length s))
        [ (enc_varint v, 1); (enc_varint v ^ String.make 8 '\x05', 9) ])
    boundaries;
  Alcotest.(check int) "negative ints take 10 bytes" 10 (String.length (enc_varint (-1)))

(* Streams of encoded values, boundaries, 64-bit patterns outside the
   native range, 11-byte overlong varints and junk, cut at a random point;
   decoded with a count that may exceed what the stream holds. *)
let stream_gen =
  let open QCheck.Gen in
  let token =
    frequency
      [
        (6, map (fun v -> Ref.enc_varint v) (int_bound 127));
        ( 3,
          map
            (fun (k, v) -> Ref.enc_varint (v land ((1 lsl k) - 1)))
            (pair (int_range 1 62) int) );
        (2, map Ref.enc_varint (oneofl boundaries));
        (1, map Ref.leb128 ui64);
        (1, return (String.make 10 '\x80' ^ "\x01"));
        (1, string_size ~gen:char (int_range 1 12));
      ]
  in
  list_size (int_range 0 60) token >>= fun toks ->
  let s = String.concat "" toks in
  int_range 0 (String.length s) >>= fun cut ->
  bool >>= fun truncate ->
  int_range 0 (List.length toks + 3) >>= fun n ->
  return ((if truncate then String.sub s 0 cut else s), n)

let prop_varint_into =
  QCheck.Test.make ~name:"varint_into matches the boxed decoder" ~count:2000
    (QCheck.make ~print:(fun (s, n) -> Printf.sprintf "%S n=%d" s n) stream_gen)
    (fun (s, n) -> decode_new s n = decode_ref s n && each_new s = each_ref s)

let prop_enc_varint =
  QCheck.Test.make ~name:"Enc.varint matches the Int64 encoder" ~count:2000 QCheck.int
    (fun v ->
      let w = v asr (v land 63) in
      enc_varint v = Ref.enc_varint v && enc_varint w = Ref.enc_varint w)

let prop_fnv =
  QCheck.Test.make ~name:"Fnv.string matches the String.iter form" ~count:1000
    QCheck.(pair int64 string)
    (fun (h, s) -> Int64.equal (Fnv.string h s) (Ref.fnv_string h s))

(* Both ways of giving [frame] a payload (an encoder's bytes, or a writer
   straight into the blob) frame the reference bytes, and [unframe] hands
   back every section's tag and payload as a span of the blob. *)
let prop_frame =
  QCheck.Test.make ~name:"frame and unframe match the copying envelope" ~count:500
    QCheck.(pair (int_range 1 200) (small_list (pair (int_range 0 300) string)))
    (fun (version, sections) ->
      let expected = ref_frame ~magic:"TEST" ~version sections in
      let encoded =
        List.map
          (fun (tag, p) ->
            let e = Wire.Enc.create () in
            String.iter (fun c -> Wire.Enc.byte e (Char.code c)) p;
            Wire.section ~tag e)
          sections
      and written =
        List.map
          (fun (tag, p) ->
            Wire.section_sized ~tag ~len:(String.length p) (fun e ->
                String.iter (fun c -> Wire.Enc.byte e (Char.code c)) p))
          sections
      in
      let blob = Wire.frame ~magic:"TEST" ~version encoded in
      String.equal blob expected
      && String.equal (Wire.frame ~magic:"TEST" ~version written) expected
      &&
      match Wire.unframe ~magic:"TEST" ~max_version:200 blob with
      | Error _ -> false
      | Ok (v, spans) ->
          v = version
          && List.map
               (fun (sp : Wire.span) -> (sp.s_tag, String.sub blob sp.s_off sp.s_len))
               spans
             = sections)

let test_frame_checks_length () =
  let short = Wire.section_sized ~tag:1 ~len:3 (fun e -> Wire.Enc.byte e 0) in
  match Wire.frame ~magic:"TEST" ~version:1 [ short ] with
  | _ -> Alcotest.fail "a section shorter than declared was framed"
  | exception Invalid_argument _ -> ()

(* Allocation guards: each kernel allocates nothing per byte or value
   (well under 0.01 words; a boxed [Int64] per step is 3). *)
let guard name words per =
  if words /. float_of_int per >= 0.01 then
    Alcotest.failf "%s: %.4f words per unit (%d units)" name (words /. float_of_int per) per

let values =
  Array.init 100_000 (fun i ->
      match i mod 8 with
      | 0 -> (i * 7919) land ((1 lsl 56) - 1)
      | 1 -> i * 131
      | 2 -> i land 0x3fff
      | _ -> i land 0x7f)

let test_no_allocation () =
  let s = String.init 1_000_000 (fun i -> Char.chr ((i * 31) land 0xff)) in
  guard "Fnv.string"
    (Alloc.words (fun () -> ignore (Fnv.string Fnv.init s)))
    (String.length s);
  let n = Array.length values in
  let blob = String.concat "" (Array.to_list (Array.map enc_varint values)) in
  (* Buffer growth is the same for the same bytes however they are
     appended, so the appends a byte at a time are the baseline. *)
  let bytes =
    Alloc.words (fun () ->
        let e = Wire.Enc.create () in
        String.iter (fun c -> Wire.Enc.byte e (Char.code c)) blob)
  in
  let enc =
    Alloc.words (fun () ->
        let e = Wire.Enc.create () in
        Array.iter (Wire.Enc.varint e) values)
  in
  guard "Enc.varint" (enc -. bytes) n;
  let a = Array.make n 0 in
  guard "Dec.varint_into"
    (Alloc.words (fun () -> Wire.Dec.varint_into (Wire.Dec.of_string blob) a n))
    n;
  Alcotest.(check bool) "decoded back" true (a = values);
  (* The framer allocates the blob and nothing per payload byte; the
     unframer nothing per byte at all. *)
  let sections =
    List.init 16 (fun tag ->
        Wire.section_sized ~tag ~len:(String.length s / 16) (fun e ->
            for i = tag * (String.length s / 16) to ((tag + 1) * (String.length s / 16)) - 1 do
              Wire.Enc.byte e (Char.code s.[i])
            done))
  in
  let framed = Wire.frame ~magic:"TEST" ~version:1 sections in
  let blob_words = float_of_int (String.length framed / 8) in
  guard "Wire.frame"
    (Alloc.words (fun () -> ignore (Wire.frame ~magic:"TEST" ~version:1 sections))
    -. blob_words)
    (String.length framed);
  guard "Wire.unframe"
    (Alloc.words (fun () -> ignore (Wire.unframe ~magic:"TEST" ~max_version:1 framed)))
    (String.length framed)

let suite =
  ( "wire",
    [
      Alcotest.test_case "varint boundaries" `Quick test_boundaries;
      Alcotest.test_case "no allocation per byte or value" `Quick test_no_allocation;
      QCheck_alcotest.to_alcotest prop_varint_into;
      QCheck_alcotest.to_alcotest prop_enc_varint;
      QCheck_alcotest.to_alcotest prop_fnv;
      QCheck_alcotest.to_alcotest prop_frame;
      Alcotest.test_case "frame checks each section's length" `Quick test_frame_checks_length;
    ] )
