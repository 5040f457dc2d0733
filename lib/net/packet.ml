type kind =
  | Data
  | Ack
  | Nack
  | Credit
  | Credit_req
  | Grant
  | Pause
  | Resume
  | Pause_bitmap
  | Hop_credit
  | Pfc
  | Cnp

type int_hop = {
  mutable h_ts : Bfc_engine.Time.t;
  mutable h_tx_bytes : int;
  mutable h_qlen : int;
  mutable h_gbps : float;
  mutable h_link : int;
}

type t = {
  mutable uid : int;
  mutable kind : kind;
  mutable flow : Flow.t option;
  mutable dst : int;
  mutable size : int;
  mutable payload : int;
  mutable seq : int;
  mutable flags : int;
  mutable prio : int;
  mutable remaining : int;
  mutable upstream_q : int;
  mutable bp_in_port : int;
  mutable bp_upq : int;
  mutable sent_at : Bfc_engine.Time.t;
  mutable enq_at : Bfc_engine.Time.t;
  mutable ctrl_a : int;
  mutable ctrl_b : int;
  mutable idx : int;
  mutable next_free : int;
}

let header_bytes = 48

let ack_bytes = 64

let ctrl_bytes = 64

(* ------------------------------- Flags --------------------------------- *)

let flag_ecn = 1

let flag_ecn_echo = 2

let flag_bp_counted = 4

let flag_bp_sampled = 8

(* [make]'s flags: only [bp_sampled] is set. *)
let default_flags = flag_bp_sampled

let[@inline] set_flag p m b = p.flags <- (if b then p.flags lor m else p.flags land lnot m)

let[@inline] ecn p = p.flags land flag_ecn <> 0

let[@inline] set_ecn p b = set_flag p flag_ecn b

let[@inline] ecn_echo p = p.flags land flag_ecn_echo <> 0

let[@inline] set_ecn_echo p b = set_flag p flag_ecn_echo b

let[@inline] bp_counted p = p.flags land flag_bp_counted <> 0

let[@inline] set_bp_counted p b = set_flag p flag_bp_counted b

let[@inline] bp_sampled p = p.flags land flag_bp_sampled <> 0

let[@inline] set_bp_sampled p b = set_flag p flag_bp_sampled b

(* Fallback uid source for packets made outside any simulation (unit tests,
   standalone tools). Pools and [~sim] callers draw from the per-sim counter
   instead, which is what keeps uid sequences deterministic per run and
   race-free across domains. *)
let fallback_uid = Atomic.make 0

let build ~uid kind flow ~dst ~size ~payload ~seq ~prio =
  {
    uid;
    kind;
    flow;
    dst;
    size;
    payload;
    seq;
    flags = default_flags;
    prio;
    remaining = 0;
    upstream_q = 0;
    bp_in_port = -1;
    bp_upq = -1;
    sent_at = 0;
    enq_at = 0;
    ctrl_a = 0;
    ctrl_b = 0;
    idx = -1;
    next_free = -2;
  }

let make ?sim kind ?flow ~dst ~size ?(payload = 0) ?(seq = 0) ?(prio = 0) () =
  let uid =
    match sim with
    | Some s -> Bfc_engine.Sim.fresh_uid s
    | None -> Atomic.fetch_and_add fallback_uid 1
  in
  build ~uid kind flow ~dst ~size ~payload ~seq ~prio

let placeholder = build ~uid:(-1) Data None ~dst:(-1) ~size:0 ~payload:0 ~seq:0 ~prio:0

let data ?sim ~flow ~seq ~payload ?(extra_header = 0) () =
  make ?sim Data ~flow ~dst:flow.Flow.dst
    ~size:(payload + header_bytes + extra_header)
    ~payload ~seq ~prio:flow.prio_class ()

(* ------------------------------ Exceptions ----------------------------- *)

exception Missing_flow of { uid : int; at : Bfc_engine.Time.t }

let () =
  Printexc.register_printer (function
    | Missing_flow { uid; at } ->
      Some
        (Format.asprintf "Packet.Missing_flow(uid=%d, t=%a): data-path packet without a flow" uid
           Bfc_engine.Time.pp at)
    | _ -> None)

let flow_exn t ~at = match t.flow with Some f -> f | None -> raise (Missing_flow { uid = t.uid; at })

let flow_id t = match t.flow with Some f -> f.Flow.id | None -> -1

(* -------------------------------- Pool --------------------------------- *)

module Pool = struct
  type packet = t

  (* The per-sim packet table: [pkts] maps an index to its packet, for
     every packet this table has seen (live or parked). Parked packets
     form a LIFO list threaded through [next_free], headed by [free]; a
     live packet's [next_free] is [in_use]. A packet keeps its index for
     life, so queues and events can name it by an int.

     The side tables hold what only one scheme reads, by packet index:
     HPCC's INT stack ([int_hops], of which the first [int_cnt] records
     are valid) and a BFC pause bitmap's payload ([bitmaps]). Each stays
     [[||]] until its first use, so a run without INT stamping or bitmaps
     pays nothing for them, and grows to the capacity of [pkts]. *)
  type nonrec t = {
    sim : Bfc_engine.Sim.t;
    mutable pkts : packet array;
    mutable n : int;
    mutable free : int; (* index of the last parked packet, -1 = none *)
    mutable n_free : int;
    mutable allocated : int;
    mutable recycled : int;
    mutable int_hops : int_hop array array;
    mutable int_cnt : int array;
    mutable bitmaps : int array array;
  }

  let create ~sim =
    {
      sim;
      pkts = [||];
      n = 0;
      free = -1;
      n_free = 0;
      allocated = 0;
      recycled = 0;
      int_hops = [||];
      int_cnt = [||];
      bitmaps = [||];
    }

  let free_count t = t.n_free

  let allocated t = t.allocated

  let recycled t = t.recycled

  let side_slots t = Array.length t.int_cnt + Array.length t.bitmaps

  let get t i = t.pkts.(i)

  let in_use = -2

  (* Give [p] the next index (one pointer store per packet, ever). *)
  let register t p =
    if t.n = Array.length t.pkts then begin
      let np = Array.make (Int.max 64 (2 * t.n)) p in
      Array.blit t.pkts 0 np 0 t.n;
      t.pkts <- np
    end;
    t.pkts.(t.n) <- p;
    p.idx <- t.n;
    t.n <- t.n + 1;
    p.idx

  let index t p =
    let i = p.idx in
    if i >= 0 && i < t.n && Array.unsafe_get t.pkts i == p then i
    else if i >= 0 then invalid_arg "Packet.Pool.index: packet of another simulation"
    else register t p

  (* [a] extended with [fill] to the capacity of [t.pkts]. *)
  let widen t a fill =
    let na = Array.make (Array.length t.pkts) fill in
    Array.blit a 0 na 0 (Array.length a);
    na

  (* ----------------------------- INT stack ----------------------------- *)

  let int_hop_count t p =
    let i = index t p in
    if i < Array.length t.int_cnt then t.int_cnt.(i) else 0

  let int_hops t p =
    let i = index t p in
    if i < Array.length t.int_hops then t.int_hops.(i) else [||]

  let fresh_hop () = { h_ts = 0; h_tx_bytes = 0; h_qlen = 0; h_gbps = 0.0; h_link = -1 }

  (* [i]'s hop storage with room for [needed] records; existing records
     are kept, so they are reused in place. *)
  let hop_storage t i needed =
    if i >= Array.length t.int_cnt then begin
      t.int_cnt <- widen t t.int_cnt 0;
      t.int_hops <- widen t t.int_hops [||]
    end;
    let hops = t.int_hops.(i) in
    let cap = Array.length hops in
    if needed <= cap then hops
    else begin
      let ncap = Int.max needed (Int.max 4 (cap * 2)) in
      let nh = Array.init ncap (fun k -> if k < cap then hops.(k) else fresh_hop ()) in
      t.int_hops.(i) <- nh;
      nh
    end

  let add_int_hop t p ~ts ~tx_bytes ~qlen ~gbps ~link =
    let i = index t p in
    let n = if i < Array.length t.int_cnt then t.int_cnt.(i) else 0 in
    let h = (hop_storage t i (n + 1)).(n) in
    h.h_ts <- ts;
    h.h_tx_bytes <- tx_bytes;
    h.h_qlen <- qlen;
    h.h_gbps <- gbps;
    h.h_link <- link;
    t.int_cnt.(i) <- n + 1

  let copy_hop ~src:s ~dst:d =
    d.h_ts <- s.h_ts;
    d.h_tx_bytes <- s.h_tx_bytes;
    d.h_qlen <- s.h_qlen;
    d.h_gbps <- s.h_gbps;
    d.h_link <- s.h_link

  (* [dst]'s stack becomes a record-by-record copy of [hops.(0 .. n-1)],
     in [dst]'s own (reused) records: sharing records between packets
     would alias them across a recycled packet and a live ack — the
     classic use-after-release bug a pool invites. *)
  let set_int_hops t dst hops n =
    let j = index t dst in
    if n > 0 then begin
      let d = hop_storage t j n in
      for k = 0 to n - 1 do
        copy_hop ~src:hops.(k) ~dst:d.(k)
      done;
      t.int_cnt.(j) <- n
    end
    else if j < Array.length t.int_cnt then t.int_cnt.(j) <- 0

  let copy_int_hops t ~src ~dst = set_int_hops t dst (int_hops t src) (int_hop_count t src)

  (* ---------------------------- Pause bitmap --------------------------- *)

  let bitmap t p =
    let i = index t p in
    if i < Array.length t.bitmaps then t.bitmaps.(i) else [||]

  let set_bitmap t p ints =
    let i = index t p in
    if i < Array.length t.bitmaps then t.bitmaps.(i) <- ints
    else if Array.length ints > 0 then begin
      t.bitmaps <- widen t t.bitmaps [||];
      t.bitmaps.(i) <- ints
    end

  (* ------------------------------ Life cycle --------------------------- *)

  (* Full reset to [make]'s defaults: an acquired packet must be
     indistinguishable from a fresh one, or a stale [ecn_echo] / [bp_*] /
     INT cursor / bitmap silently corrupts the next flow that reuses it.
     The INT-hop records are kept (they are reused via the cursor). *)
  let reset t (p : packet) =
    p.flow <- None;
    p.dst <- -1;
    p.size <- 0;
    p.payload <- 0;
    p.seq <- 0;
    p.flags <- default_flags;
    p.prio <- 0;
    p.remaining <- 0;
    p.upstream_q <- 0;
    p.bp_in_port <- -1;
    p.bp_upq <- -1;
    p.sent_at <- 0;
    p.enq_at <- 0;
    p.ctrl_a <- 0;
    p.ctrl_b <- 0;
    let i = p.idx in
    if i < Array.length t.int_cnt then t.int_cnt.(i) <- 0;
    if i < Array.length t.bitmaps then t.bitmaps.(i) <- [||]

  let release t (p : packet) =
    if p.next_free <> in_use then invalid_arg "Packet.Pool.release: double release";
    let i = index t p in
    reset t p;
    p.next_free <- t.free;
    t.free <- i;
    t.n_free <- t.n_free + 1

  let acquire t kind ~flow ~dst ~size ~seq =
    if t.n_free = 0 then begin
      t.allocated <- t.allocated + 1;
      let p =
        build ~uid:(Bfc_engine.Sim.fresh_uid t.sim) kind flow ~dst ~size ~payload:0 ~seq
          ~prio:0
      in
      ignore (register t p);
      p
    end
    else begin
      t.n_free <- t.n_free - 1;
      let p = t.pkts.(t.free) in
      t.free <- p.next_free;
      p.next_free <- in_use;
      t.recycled <- t.recycled + 1;
      p.uid <- Bfc_engine.Sim.fresh_uid t.sim;
      p.kind <- kind;
      p.flow <- flow;
      p.dst <- dst;
      p.size <- size;
      p.seq <- seq;
      p
    end

  let data t ~flow ~seq ~payload ~extra_header =
    let f = match flow with Some f -> f | None -> invalid_arg "Packet.Pool.data: no flow" in
    let p =
      acquire t Data ~flow ~dst:f.Flow.dst
        ~size:(payload + header_bytes + extra_header)
        ~seq
    in
    p.payload <- payload;
    p.prio <- f.Flow.prio_class;
    p
end
