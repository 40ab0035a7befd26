module Ir = Csspgo_ir
module Pg = Csspgo_profgen
module Itab = Csspgo_support.Itab

type t = {
  (* function guid -> outgoing tail-call edges (call addr, target function) *)
  edges : (int * Ir.Guid.t) list Ir.Guid.Tbl.t;
  n_edges : int;
}

type builder = {
  mb_index : Pg.Bindex.t;
  mb_edges : (int * Ir.Guid.t) list Ir.Guid.Tbl.t;
  mb_seen : int Itab.t;  (** LBR pairs seen: (source, target, 0) -> 1 *)
  mutable mb_n : int;
  mb_obs : Csspgo_obs.Metrics.t;
}

let start ?(obs = Csspgo_obs.Metrics.null) index =
  {
    mb_index = index;
    mb_edges = Ir.Guid.Tbl.create 16;
    mb_seen = Itab.create 0;
    mb_n = 0;
    mb_obs = obs;
  }

let feed mb ~lbr ~lbr_len =
  for i = 0 to lbr_len - 1 do
    let src = lbr.(2 * i) and tgt = lbr.((2 * i) + 1) in
    if Itab.find mb.mb_seen src tgt 0 = 0 then begin
      Itab.add mb.mb_seen src tgt 0 1;
      if Pg.Bindex.kind_of_addr mb.mb_index src = Pg.Bindex.K_tail_call then
        match
          ( Pg.Bindex.func_guid_of_addr mb.mb_index src,
            Pg.Bindex.func_guid_of_addr mb.mb_index tgt )
        with
        | Some from_g, Some to_g ->
            let cur = Option.value (Ir.Guid.Tbl.find_opt mb.mb_edges from_g) ~default:[] in
            if not (List.exists (fun (a, g) -> a = src && Ir.Guid.equal g to_g) cur)
            then begin
              Ir.Guid.Tbl.replace mb.mb_edges from_g (cur @ [ (src, to_g) ]);
              mb.mb_n <- mb.mb_n + 1
            end
        | _ -> ()
    end
  done

let finish mb =
  let module M = Csspgo_obs.Metrics in
  M.bump (M.counter mb.mb_obs "missing-frame.edges") mb.mb_n;
  { edges = mb.mb_edges; n_edges = mb.mb_n }

let n_edges t = t.n_edges

let edges t =
  Ir.Guid.Tbl.fold
    (fun from es acc -> List.fold_left (fun acc (addr, tgt) -> (from, addr, tgt) :: acc) acc es)
    t.edges []
  |> List.sort compare

(* Edge-table union, the sharded correlator's reduction step: per-shard
   builders see only their shard's LBR stream, so their edge sets may each
   miss edges the other saw. Per-function lists concatenate left-then-
   unseen-right, which can order edges differently than one builder fed
   the whole stream — harmless, because [resolve] enumerates *all* acyclic
   paths and succeeds only on uniqueness, so its verdict depends on the
   edge *set* only. The union of the shard sets is exactly the serial set
   (an edge is recorded iff some sample's LBR carries its pair). *)
let union a b =
  let edges = Ir.Guid.Tbl.create (max 16 (Ir.Guid.Tbl.length a.edges)) in
  let n = ref 0 in
  Ir.Guid.Tbl.iter
    (fun g es ->
      Ir.Guid.Tbl.replace edges g es;
      n := !n + List.length es)
    a.edges;
  Ir.Guid.Tbl.iter
    (fun g es ->
      let cur = Option.value (Ir.Guid.Tbl.find_opt edges g) ~default:[] in
      let fresh =
        List.filter
          (fun (addr, tgt) ->
            not (List.exists (fun (a', t') -> a' = addr && Ir.Guid.equal t' tgt) cur))
          es
      in
      if fresh <> [] then begin
        Ir.Guid.Tbl.replace edges g (cur @ fresh);
        n := !n + List.length fresh
      end)
    b.edges;
  { edges; n_edges = !n }

let max_depth = 8

let resolve t ~from_func ~to_func =
  if Ir.Guid.equal from_func to_func then Some []
  else begin
    (* Enumerate all acyclic tail-call paths from [from_func] whose final
       edge targets [to_func]; unique -> success. *)
    let paths = ref [] in
    let rec go cur path visited depth =
      if depth <= max_depth && List.length !paths < 2 then
        List.iter
          (fun (addr, target) ->
            if Ir.Guid.equal target to_func then paths := List.rev (addr :: path) :: !paths
            else if not (List.exists (Ir.Guid.equal target) visited) then
              go target (addr :: path) (target :: visited) (depth + 1))
          (Option.value (Ir.Guid.Tbl.find_opt t.edges cur) ~default:[])
    in
    go from_func [] [ from_func ] 0;
    match !paths with [ p ] -> Some p | _ -> None
  end
