module Mach = Csspgo_codegen.Mach
module Itab = Csspgo_support.Itab

(* Counts keyed on pairs: [(lo, hi, 0)] for a range, [(src, tgt, 0)] for
   a branch. *)
type agg = { ranges : int Itab.t; branches : int Itab.t }

let create () = { ranges = Itab.create 0; branches = Itab.create 0 }

let feed agg ~lbr ~lbr_len =
  for i = 0 to lbr_len - 1 do
    let src = lbr.(2 * i) and tgt = lbr.((2 * i) + 1) in
    Itab.bump agg.branches src tgt 0 1;
    if i > 0 then begin
      let prev_tgt = lbr.((2 * i) - 1) in
      (* A sane range stays within one linear run; discard wrap-arounds
         caused by LBR entries recorded around program shutdown. *)
      if prev_tgt <> 0 && src >= prev_tgt then Itab.bump agg.ranges prev_tgt src 0 1
    end
  done

let iter_ranges f agg = Itab.iter (fun lo hi _ n -> f lo hi n) agg.ranges
let iter_branches f agg = Itab.iter (fun src tgt _ n -> f src tgt n) agg.branches

let merge a b =
  let m = create () in
  List.iter
    (fun x ->
      iter_ranges (fun lo hi n -> Itab.bump m.ranges lo hi 0 n) x;
      iter_branches (fun src tgt n -> Itab.bump m.branches src tgt 0 n) x)
    [ a; b ];
  m

let addr_totals ~index agg =
  let totals = Itab.create 0 in
  iter_ranges
    (fun lo hi n ->
      Bindex.iter_range index (lo, hi) (fun i ->
          Itab.bump totals (Bindex.inst index i).Mach.i_addr 0 0 n))
    agg;
  totals

let iter_calls ~index totals f =
  Array.iter
    (fun (inst : Mach.inst) ->
      match inst.Mach.i_op with
      | Mach.MCall c | Mach.MTail_call c -> (
          match Itab.find totals inst.Mach.i_addr 0 0 with
          | total when total > 0 -> f inst c.Mach.m_callee total
          | _ -> ())
      | _ -> ())
    (Bindex.binary index).Mach.insts

let iter_heads ~index agg f =
  let funcs = (Bindex.binary index).Mach.funcs in
  iter_branches
    (fun _ tgt n -> match Bindex.entry_func index tgt with -1 -> () | fi -> f funcs.(fi) n)
    agg
