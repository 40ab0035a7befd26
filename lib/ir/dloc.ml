type callsite = {
  cs_func : Guid.t;
  cs_line : int;
  cs_disc : int;
  cs_probe : int;
}

type t = {
  origin : Guid.t;
  line : int;
  disc : int;
  inlined_at : callsite list;
}

let none = { origin = 0L; line = 0; disc = 0; inlined_at = [] }

let is_none t = Guid.equal t.origin 0L && t.line = 0

let mk origin line = { origin; line; disc = 0; inlined_at = [] }

let push_inline t cs = { t with inlined_at = t.inlined_at @ [ cs ] }

let frames ~container t =
  if is_none t then [ (container, 0, 0) ]
  else
    let inner = (t.origin, t.line, 0) in
    let rest = List.map (fun cs -> (cs.cs_func, cs.cs_line, cs.cs_probe)) t.inlined_at in
    inner :: rest

let equal_callsite a b =
  Guid.equal a.cs_func b.cs_func
  && a.cs_line = b.cs_line && a.cs_disc = b.cs_disc && a.cs_probe = b.cs_probe

let equal a b =
  Guid.equal a.origin b.origin
  && a.line = b.line && a.disc = b.disc
  && List.length a.inlined_at = List.length b.inlined_at
  && List.for_all2 equal_callsite a.inlined_at b.inlined_at

let compare_callsite a b =
  let c = Guid.compare a.cs_func b.cs_func in
  if c <> 0 then c
  else
    let c = compare a.cs_line b.cs_line in
    if c <> 0 then c
    else
      let c = compare a.cs_disc b.cs_disc in
      if c <> 0 then c else compare a.cs_probe b.cs_probe

let compare a b =
  let c = Guid.compare a.origin b.origin in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.disc b.disc in
      if c <> 0 then c
      else List.compare compare_callsite a.inlined_at b.inlined_at

let hash t =
  Hashtbl.hash
    ( t.origin,
      t.line,
      t.disc,
      List.map (fun cs -> (cs.cs_func, cs.cs_line, cs.cs_disc, cs.cs_probe)) t.inlined_at )

let pp_callsite fmt cs =
  Format.fprintf fmt "%a:%d" Guid.pp cs.cs_func cs.cs_line;
  if cs.cs_disc <> 0 then Format.fprintf fmt ".%d" cs.cs_disc;
  if cs.cs_probe <> 0 then Format.fprintf fmt "#%d" cs.cs_probe

let pp fmt t =
  if is_none t then Format.pp_print_string fmt "<none>"
  else begin
    Format.fprintf fmt "%a:%d" Guid.pp t.origin t.line;
    if t.disc <> 0 then Format.fprintf fmt ".%d" t.disc;
    List.iter (fun cs -> Format.fprintf fmt " @%a" pp_callsite cs) t.inlined_at
  end
