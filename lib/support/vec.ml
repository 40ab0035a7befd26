type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let make n x = { data = Array.make n x; len = n }

let length t = t.len
let is_empty t = t.len = 0

let check t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds [0,%d)" i t.len)

let get t i =
  check t i;
  Array.unsafe_get t.data i

let set t i x =
  check t i;
  Array.unsafe_set t.data i x

let ensure_capacity t n =
  let cap = Array.length t.data in
  if n > cap then begin
    let new_cap = max n (max 8 (2 * cap)) in
    (* [t.len > 0] guarantees a valid filler element exists. *)
    let fill = if t.len > 0 then t.data.(0) else Obj.magic 0 in
    let data = Array.make new_cap fill in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  if t.len = Array.length t.data then begin
    (* Grow using [x] as the filler so we never fabricate values. *)
    let new_cap = max 8 (2 * t.len) in
    let data = Array.make new_cap x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (Array.unsafe_get t.data i)
  done

let map f t =
  let r = create () in
  ensure_capacity r t.len;
  iter (fun x -> push r (f x)) t;
  r

let fold_left f acc t =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) t;
  !acc

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let for_all p t = not (exists (fun x -> not (p x)) t)

let find_opt p t =
  let rec go i =
    if i >= t.len then None
    else if p t.data.(i) then Some t.data.(i)
    else go (i + 1)
  in
  go 0

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []

let of_list l =
  let t = create () in
  List.iter (push t) l;
  t

let to_array t = Array.sub t.data 0 t.len

let copy t = { data = Array.copy t.data; len = t.len }

let append dst src = iter (push dst) src

let sort cmp t =
  let a = to_array t in
  Array.sort cmp a;
  Array.blit a 0 t.data 0 t.len
