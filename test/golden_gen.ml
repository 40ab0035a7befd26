(* Golden-file generator for [Profile.Text_io].

   Builds one small hand-written profile of each kind and prints its
   canonical rendering to stdout. The dune rules in this directory diff the
   output against the checked-in files under golden/; a formatting change
   shows up as a readable diff and is accepted with `dune promote`. *)

module P = Csspgo_profile
module Guid = Csspgo_ir.Guid
module Vm = Csspgo_vm
module Ls = Csspgo_support.Label_set

let g = Guid.of_name

let probe () =
  let t = P.Probe_profile.create () in
  let main = P.Probe_profile.get_or_add t (g "main") ~name:"main" in
  main.P.Probe_profile.fe_head <- 1L;
  main.P.Probe_profile.fe_checksum <- 0x1f2e3d4cL;
  P.Probe_profile.add_probe main 1 120L;
  P.Probe_profile.add_probe main 2 80L;
  P.Probe_profile.add_probe main 4 40L;
  P.Probe_profile.add_call main 4 (g "hot") 38L;
  P.Probe_profile.add_call main 4 (g "cold") 2L;
  let hot = P.Probe_profile.get_or_add t (g "hot") ~name:"hot" in
  hot.P.Probe_profile.fe_head <- 38L;
  hot.P.Probe_profile.fe_checksum <- 0xbeefL;
  P.Probe_profile.add_probe hot 1 38L;
  P.Probe_profile.add_probe hot 2 3800L;
  let cold = P.Probe_profile.get_or_add t (g "cold") ~name:"cold" in
  cold.P.Probe_profile.fe_head <- 2L;
  P.Probe_profile.add_probe cold 1 2L;
  P.Text_io.(to_string (Probe_prof t))

let ctx () =
  let t = P.Ctx_profile.create () in
  let main = P.Ctx_profile.base t (g "main") ~name:"main" in
  main.P.Ctx_profile.n_prof.P.Probe_profile.fe_head <- 1L;
  main.P.Ctx_profile.n_prof.P.Probe_profile.fe_checksum <- 0x1f2e3d4cL;
  P.Probe_profile.add_probe main.P.Ctx_profile.n_prof 1 120L;
  P.Probe_profile.add_probe main.P.Ctx_profile.n_prof 4 40L;
  P.Probe_profile.add_call main.P.Ctx_profile.n_prof 4 (g "hot") 40L;
  (match
     P.Ctx_profile.node_at t ~path:[ (((g "main"), 4), g "hot", "hot") ]
   with
  | None -> assert false
  | Some node ->
      node.P.Ctx_profile.n_inlined <- true;
      node.P.Ctx_profile.n_prof.P.Probe_profile.fe_head <- 40L;
      node.P.Ctx_profile.n_prof.P.Probe_profile.fe_checksum <- 0xbeefL;
      P.Probe_profile.add_probe node.P.Ctx_profile.n_prof 1 40L;
      P.Probe_profile.add_probe node.P.Ctx_profile.n_prof 2 4000L);
  P.Text_io.(to_string (Ctx_prof t))

let line () =
  let t = P.Line_profile.create () in
  let main = P.Line_profile.get_or_add t (g "main") ~name:"main" in
  main.P.Line_profile.fe_head <- 1L;
  P.Line_profile.add_line main (1, 0) 120L;
  P.Line_profile.add_line main (3, 0) 80L;
  P.Line_profile.add_line main (3, 1) 40L;
  P.Line_profile.add_call main (5, 0) (g "hot") 40L;
  let hot = P.Line_profile.get_or_add t (g "hot") ~name:"hot" in
  hot.P.Line_profile.fe_head <- 40L;
  P.Line_profile.add_line hot (0, 0) 40L;
  P.Line_profile.add_line hot (2, 0) 4000L;
  P.Text_io.(to_string (Line_prof t))

(* The .bprof fixtures pin the binary wire format the same way: the blob
   for each kind is checked in byte-for-byte, so any encoder change — even
   a compatible one — must be an explicit `dune promote`, and a version
   bump that breaks decoding of the pinned v1 blobs fails the diff rules'
   sibling test in [Test_binary_io]. *)
let binary text = P.Binary_io.encode (P.Text_io.of_string text)

(* A small hand-written labeled sample log: two tenants, a label run that
   returns to an already-interned set, and a chunk size that splits the
   stream mid-run. Its v3 blob pins the label-section wire format; the v2
   blob of its unlabeled copy pins the lossless downgrade framing. *)
let cslg () =
  let log = Vm.Sample_log.create () in
  (* [lbr] is flat: each entry's branch address, then its target. *)
  let add lbr stack =
    let lbr = Array.of_list lbr and stack = Array.of_list stack in
    Vm.Sample_log.add log ~lbr ~lbr_len:(Array.length lbr / 2) ~stack
      ~stack_len:(Array.length stack)
  in
  let acme = Ls.of_list [ ("tenant", "acme"); ("endpoint", "adfinder") ] in
  Vm.Sample_log.set_label log acme;
  add [ 10; 20; 22; 30 ] [ 30; 7 ];
  add [ 30; 10 ] [ 12 ];
  Vm.Sample_log.set_label log (Ls.of_list [ ("tenant", "zeta") ]);
  add [ 40; 44 ] [ 44; 9; 3 ];
  Vm.Sample_log.set_label log acme;
  add [] [ 50 ];
  log

let () =
  set_binary_mode_out stdout true;
  match Sys.argv.(1) with
  | "probe" -> print_string (probe ())
  | "ctx" -> print_string (ctx ())
  | "line" -> print_string (line ())
  | "probe-bin" -> print_string (binary (probe ()))
  | "ctx-bin" -> print_string (binary (ctx ()))
  | "line-bin" -> print_string (binary (line ()))
  | "cslg-v3" -> print_string (Vm.Sample_log.encode ~chunk:2 (cslg ()))
  | "cslg-v2" ->
      print_string (Vm.Sample_log.encode ~chunk:2 (Vm.Sample_log.unlabeled (cslg ())))
  | s -> failwith ("golden_gen: unknown kind " ^ s)
  | exception _ ->
      failwith
        "usage: golden_gen (probe|ctx|line|probe-bin|ctx-bin|line-bin|cslg-v3|cslg-v2)"
