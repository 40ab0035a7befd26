(* Handles are Noop for the null registry, so a disabled pipeline pays one
   pattern match per bump and allocates nothing. Live handles shard over
   [Domain.self () land (shards - 1)]; shard counts are powers of two, and
   [Atomic.fetch_and_add] keeps colliding domains from losing updates. *)

type counter = C_noop | C_live of int Atomic.t array
type gauge = G_noop | G_live of int Atomic.t array

let n_buckets = 64

type hist_shards = {
  h_buckets : int Atomic.t array array;  (* shard -> log2 bucket counts *)
  hs_count : int Atomic.t array;
  hs_sum : int Atomic.t array;
}

type histogram = H_noop | H_live of hist_shards

type t = {
  m_live : bool;
  m_shards : int;
  m_lock : Mutex.t;
  m_counters : (string, counter) Hashtbl.t;
  m_gauges : (string, gauge) Hashtbl.t;
  m_hists : (string, histogram) Hashtbl.t;
  m_trace : Trace.t option;
}

let null =
  {
    m_live = false;
    m_shards = 1;
    m_lock = Mutex.create ();
    m_counters = Hashtbl.create 1;
    m_gauges = Hashtbl.create 1;
    m_hists = Hashtbl.create 1;
    m_trace = None;
  }

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?shards ?trace () =
  let shards =
    match shards with
    | Some s -> next_pow2 (max 1 s)
    | None -> next_pow2 (max 8 (Domain.recommended_domain_count ()))
  in
  {
    m_live = true;
    m_shards = shards;
    m_lock = Mutex.create ();
    m_counters = Hashtbl.create 32;
    m_gauges = Hashtbl.create 16;
    m_hists = Hashtbl.create 16;
    m_trace = trace;
  }

let enabled t = t.m_live
let trace t = t.m_trace

let locked t f =
  Mutex.lock t.m_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m_lock) f

let atomic_array n = Array.init n (fun _ -> Atomic.make 0)

let register t tbl name make =
  if not t.m_live then None
  else
    locked t (fun () ->
        match Hashtbl.find_opt tbl name with
        | Some h -> Some h
        | None ->
            let h = make () in
            Hashtbl.replace tbl name h;
            Some h)

let counter t name =
  match
    register t t.m_counters name (fun () -> C_live (atomic_array t.m_shards))
  with
  | Some c -> c
  | None -> C_noop

let gauge t name =
  match register t t.m_gauges name (fun () -> G_live (atomic_array t.m_shards)) with
  | Some g -> g
  | None -> G_noop

let histogram t name =
  match
    register t t.m_hists name (fun () ->
        H_live
          {
            h_buckets = Array.init t.m_shards (fun _ -> atomic_array n_buckets);
            hs_count = atomic_array t.m_shards;
            hs_sum = atomic_array t.m_shards;
          })
  with
  | Some h -> h
  | None -> H_noop

let shard_of slots = (Domain.self () :> int) land (Array.length slots - 1)

let bump c n =
  match c with
  | C_noop -> ()
  | C_live slots -> ignore (Atomic.fetch_and_add slots.(shard_of slots) n)

let incr c = bump c 1

let rec max_update a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then max_update a v

(* Negative observations clamp to the resting value 0: a max-gauge's
   shards rest at 0, so merging could never surface a negative value
   anyway — clamping keeps the contract explicit instead of accidental. *)
let observe_gauge g v =
  match g with
  | G_noop -> ()
  | G_live slots -> if v > 0 then max_update slots.(shard_of slots) v

(* Bucket 0 holds v <= 0; bucket k >= 1 holds 2^(k-1) <= v < 2^k. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec log2 v i = if v <= 1 then i else log2 (v lsr 1) (i + 1) in
    min (n_buckets - 1) (1 + log2 v 0)
  end

let bucket_lo = function 0 -> 0 | k -> 1 lsl (k - 1)

let observe_n h v n =
  match h with
  | H_noop -> ()
  | H_live hs ->
      let s = shard_of hs.hs_count in
      ignore (Atomic.fetch_and_add hs.h_buckets.(s).(bucket_of v) n);
      ignore (Atomic.fetch_and_add hs.hs_count.(s) n);
      ignore (Atomic.fetch_and_add hs.hs_sum.(s) (v * n))

let observe h v = observe_n h v 1

(* --- snapshots ------------------------------------------------------ *)

type hist_summary = {
  h_count : int;
  h_sum : int;
  h_nonzero : (int * int) list;  (* (bucket index, count), ascending *)
}

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * int) list;
  s_histograms : (string * hist_summary) list;
}

let sum_shards slots = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 slots
let max_shards slots = Array.fold_left (fun acc a -> max acc (Atomic.get a)) 0 slots

let snapshot t =
  locked t (fun () ->
      let counters =
        Hashtbl.fold
          (fun name c acc ->
            match c with
            | C_noop -> acc
            | C_live slots -> (name, sum_shards slots) :: acc)
          t.m_counters []
        |> List.sort compare
      in
      let gauges =
        Hashtbl.fold
          (fun name g acc ->
            match g with
            | G_noop -> acc
            | G_live slots -> (name, max_shards slots) :: acc)
          t.m_gauges []
        |> List.sort compare
      in
      let hists =
        Hashtbl.fold
          (fun name h acc ->
            match h with
            | H_noop -> acc
            | H_live hs ->
                let nonzero = ref [] in
                for b = n_buckets - 1 downto 0 do
                  let n =
                    Array.fold_left
                      (fun acc shard -> acc + Atomic.get shard.(b))
                      0 hs.h_buckets
                  in
                  if n > 0 then nonzero := (b, n) :: !nonzero
                done;
                ( name,
                  {
                    h_count = sum_shards hs.hs_count;
                    h_sum = sum_shards hs.hs_sum;
                    h_nonzero = !nonzero;
                  } )
                :: acc)
          t.m_hists []
        |> List.sort compare
      in
      { s_counters = counters; s_gauges = gauges; s_histograms = hists })

let find_counter snap name = List.assoc_opt name snap.s_counters
let find_gauge snap name = List.assoc_opt name snap.s_gauges
let find_histogram snap name = List.assoc_opt name snap.s_histograms
