type t = int64

let init = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

(* An index loop over a local accumulator: the compiler keeps [h] unboxed,
   so only the result is boxed. A closure over a [ref] (e.g. [String.iter])
   boxes a fresh [Int64] per byte. *)
let bytes h b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Fnv.bytes";
  let h = ref h in
  for i = off to off + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)))) prime
  done;
  !h

let string h s = bytes h (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let int64 h x =
  let h = ref h in
  for i = 0 to 7 do
    h := byte !h (Int64.to_int (Int64.shift_right_logical x (8 * i)))
  done;
  !h

let int h x = int64 h (Int64.of_int x)

let hash_string s = string init s

let combine a b = int64 (int64 init a) b
