(* Allocation measurement for the allocation guards. *)

(* Words [f ()] allocates, counted on both heaps (a large table or array
   goes straight to the major heap) and taken as the least of three
   passes: the runtime's word counter can jump by most of a minor heap
   once in a process, wherever that lands. *)
let words f =
  let once () =
    let minor, promoted, major = Gc.counters () in
    f ();
    let minor', promoted', major' = Gc.counters () in
    minor' -. minor +. (major' -. major) -. (promoted' -. promoted)
  in
  List.fold_left Float.min (once ()) [ once (); once () ]
