(* Allocation measurement for the allocation guards. *)

(* Words [f ()] allocates on both heaps. [Gc.minor_words] counts minor
   allocations exactly at any moment; a large table or array goes
   straight to the major heap, counted as the major words no minor
   collection promoted. *)
let words f =
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let d = direct () in
  let m = Gc.minor_words () in
  f ();
  let m' = Gc.minor_words () in
  m' -. m +. (direct () -. d)
