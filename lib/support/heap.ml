type 'a t = { cmp : 'a -> 'a -> int; data : 'a Vec.t }

let create cmp = { cmp; data = Vec.create () }

let length t = Vec.length t.data
let is_empty t = Vec.is_empty t.data

let swap t i j =
  let tmp = Vec.get t.data i in
  Vec.set t.data i (Vec.get t.data j);
  Vec.set t.data j tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp (Vec.get t.data i) (Vec.get t.data parent) > 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let n = length t in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < n && t.cmp (Vec.get t.data l) (Vec.get t.data !best) > 0 then best := l;
  if r < n && t.cmp (Vec.get t.data r) (Vec.get t.data !best) > 0 then best := r;
  if !best <> i then begin
    swap t i !best;
    sift_down t !best
  end

let push t x =
  Vec.push t.data x;
  sift_up t (length t - 1)

let pop t =
  if is_empty t then None
  else begin
    let top = Vec.get t.data 0 in
    let last = Vec.pop t.data in
    if not (is_empty t) then begin
      Vec.set t.data 0 last;
      sift_down t 0
    end;
    Some top
  end

let of_list cmp l =
  let t = create cmp in
  List.iter (push t) l;
  t

let to_sorted_list t =
  let rec go acc = match pop t with None -> List.rev acc | Some x -> go (x :: acc) in
  go []
