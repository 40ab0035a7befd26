type 'a t = {
  mutable keys : int array;  (** three per slot; [min_int] marks a free slot *)
  mutable vals : 'a array;
  mutable count : int;
  absent : 'a;
}

let create absent =
  { keys = Array.make (3 * 64) min_int; vals = Array.make 64 absent; count = 0; absent }

(* Linear probing from slot [i]. Top level, not a local closure, so a
   lookup allocates nothing. *)
let rec probe keys mask a b c i =
  let k = 3 * i in
  let a' = keys.(k) in
  if a' = min_int || (a' = a && keys.(k + 1) = b && keys.(k + 2) = c) then i
  else probe keys mask a b c ((i + 1) land mask)

(* The slot holding the key, or the free slot where it belongs. *)
let slot t a b c =
  let mask = Array.length t.vals - 1 in
  let h = ((((a * 0x9E3779B1) + b) * 0x9E3779B1) + c) * 0x9E3779B1 in
  probe t.keys mask a b c ((h lxor (h lsr 29)) land mask)

let find t a b c = t.vals.(slot t a b c)

let iter f t =
  let keys = t.keys in
  Array.iteri
    (fun i v ->
      if keys.(3 * i) <> min_int then f keys.(3 * i) keys.((3 * i) + 1) keys.((3 * i) + 2) v)
    t.vals

let rec add t a b c v =
  if 4 * (t.count + 1) > 3 * Array.length t.vals then begin
    let old = { t with count = 0 } in
    t.keys <- Array.make (2 * Array.length old.keys) min_int;
    t.vals <- Array.make (2 * Array.length old.vals) t.absent;
    t.count <- 0;
    iter (add t) old
  end;
  let i = slot t a b c in
  t.keys.(3 * i) <- a;
  t.keys.((3 * i) + 1) <- b;
  t.keys.((3 * i) + 2) <- c;
  t.vals.(i) <- v;
  t.count <- t.count + 1

let bump (t : int t) a b c n =
  let i = slot t a b c in
  if t.keys.(3 * i) = min_int then add t a b c (t.absent + n)
  else t.vals.(i) <- t.vals.(i) + n
