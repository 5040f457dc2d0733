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
  mutable src : int;
  mutable dst : int;
  mutable size : int;
  mutable payload : int;
  mutable seq : int;
  mutable ecn : bool;
  mutable ecn_echo : bool;
  mutable prio : int;
  mutable remaining : int;
  mutable upstream_q : int;
  mutable bp_in_port : int;
  mutable bp_upq : int;
  mutable bp_counted : bool;
  mutable bp_sampled : bool;
  mutable int_hops : int_hop array;
  mutable int_cnt : int;
  mutable sent_at : Bfc_engine.Time.t;
  mutable enq_at : Bfc_engine.Time.t;
  mutable q_delay : int;
  mutable hop_cnt : int;
  mutable ctrl_a : int;
  mutable ctrl_b : int;
  mutable ints : int array;
  mutable path_hint : int;
  mutable idx : int;
  mutable next_free : int;
}

let header_bytes = 48

let ack_bytes = 64

let ctrl_bytes = 64

(* Fallback uid source for packets made outside any simulation (unit tests,
   standalone tools). Pools and [~sim] callers draw from the per-sim counter
   instead, which is what keeps uid sequences deterministic per run and
   race-free across domains. *)
let fallback_uid = Atomic.make 0

let build ~uid kind flow ~src ~dst ~size ~payload ~seq ~prio =
  {
    uid;
    kind;
    flow;
    src;
    dst;
    size;
    payload;
    seq;
    ecn = false;
    ecn_echo = false;
    prio;
    remaining = 0;
    upstream_q = 0;
    bp_in_port = -1;
    bp_upq = -1;
    bp_counted = false;
    bp_sampled = true;
    int_hops = [||];
    int_cnt = 0;
    sent_at = 0;
    enq_at = 0;
    q_delay = 0;
    hop_cnt = 0;
    ctrl_a = 0;
    ctrl_b = 0;
    ints = [||];
    path_hint = -1;
    idx = -1;
    next_free = -2;
  }

let make ?sim kind ?flow ~src ~dst ~size ?(payload = 0) ?(seq = 0) ?(prio = 0) () =
  let uid =
    match sim with
    | Some s -> Bfc_engine.Sim.fresh_uid s
    | None -> Atomic.fetch_and_add fallback_uid 1
  in
  build ~uid kind flow ~src ~dst ~size ~payload ~seq ~prio

let placeholder = build ~uid:(-1) Data None ~src:(-1) ~dst:(-1) ~size:0 ~payload:0 ~seq:0 ~prio:0

let data ?sim ~flow ~seq ~payload ?(extra_header = 0) () =
  make ?sim Data ~flow ~src:flow.Flow.src ~dst:flow.Flow.dst
    ~size:(payload + header_bytes + extra_header)
    ~payload ~seq ~prio:flow.prio_class ()

(* ------------------------------ INT stack ------------------------------ *)

let fresh_hop () = { h_ts = 0; h_tx_bytes = 0; h_qlen = 0; h_gbps = 0.0; h_link = -1 }

let grow_hops t needed =
  let cap = Array.length t.int_hops in
  if needed > cap then begin
    let ncap = max needed (max 4 (cap * 2)) in
    let nh = Array.init ncap (fun i -> if i < cap then t.int_hops.(i) else fresh_hop ()) in
    t.int_hops <- nh
  end

let add_int_hop t ~ts ~tx_bytes ~qlen ~gbps ~link =
  grow_hops t (t.int_cnt + 1);
  let h = t.int_hops.(t.int_cnt) in
  h.h_ts <- ts;
  h.h_tx_bytes <- tx_bytes;
  h.h_qlen <- qlen;
  h.h_gbps <- gbps;
  h.h_link <- link;
  t.int_cnt <- t.int_cnt + 1

let int_hop_count t = t.int_cnt

let get_int_hop t i =
  if i < 0 || i >= t.int_cnt then invalid_arg "Packet.get_int_hop: index out of bounds";
  t.int_hops.(i)

let iter_int_hops f t =
  for i = 0 to t.int_cnt - 1 do
    f t.int_hops.(i)
  done

let clear_int_hops t = t.int_cnt <- 0

(* Field-by-field copy into [dst]'s own (reused) hop records. Sharing the
   array between packets would alias hop records across a recycled packet
   and a live ack — the classic use-after-release bug a pool invites. *)
let copy_int_hops ~src ~dst =
  grow_hops dst src.int_cnt;
  for i = 0 to src.int_cnt - 1 do
    let s = src.int_hops.(i) in
    let d = dst.int_hops.(i) in
    d.h_ts <- s.h_ts;
    d.h_tx_bytes <- s.h_tx_bytes;
    d.h_qlen <- s.h_qlen;
    d.h_gbps <- s.h_gbps;
    d.h_link <- s.h_link
  done;
  dst.int_cnt <- src.int_cnt

(* Every behavioral field but [flow], uid and table bookkeeping. *)
let copy_fields ~src:p ~dst:c =
  c.kind <- p.kind;
  c.src <- p.src;
  c.dst <- p.dst;
  c.size <- p.size;
  c.payload <- p.payload;
  c.seq <- p.seq;
  c.prio <- p.prio;
  c.remaining <- p.remaining;
  c.upstream_q <- p.upstream_q;
  c.ecn <- p.ecn;
  c.ecn_echo <- p.ecn_echo;
  c.bp_in_port <- p.bp_in_port;
  c.bp_upq <- p.bp_upq;
  c.bp_counted <- p.bp_counted;
  c.bp_sampled <- p.bp_sampled;
  copy_int_hops ~src:p ~dst:c;
  c.sent_at <- p.sent_at;
  c.enq_at <- p.enq_at;
  c.q_delay <- p.q_delay;
  c.hop_cnt <- p.hop_cnt;
  c.ctrl_a <- p.ctrl_a;
  c.ctrl_b <- p.ctrl_b;
  if Array.length p.ints > 0 then c.ints <- Array.copy p.ints;
  c.path_hint <- p.path_hint

(* Deep field copy for handing a packet to another shard: the clone
   carries every behavioral field across the channel, with no table
   index, and the destination imports it into its own table
   ([Pool.import]). [flow] is deliberately dropped — flow records are
   mutated by the receiving host, so a pointer must never cross a
   domain; the PDES runtime re-binds the destination shard's replica by
   flow id at delivery. The uid is fresh (uids are per-sim diagnostics,
   not protocol state). *)
let clone ?sim p =
  let c = make ?sim p.kind ~src:p.src ~dst:p.dst ~size:p.size () in
  copy_fields ~src:p ~dst:c;
  c

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

let is_control t =
  match t.kind with
  | Pause | Resume | Pause_bitmap | Hop_credit | Pfc | Cnp -> true
  | Data | Ack | Nack | Credit | Credit_req | Grant -> false

let flow_id t = match t.flow with Some f -> f.Flow.id | None -> -1

(* -------------------------------- Pool --------------------------------- *)

module Pool = struct
  type packet = t

  (* The per-sim packet table: [pkts] maps an index to its packet, for
     every packet this table has seen (live or parked). Parked packets
     form a LIFO list threaded through [next_free], headed by [free]; a
     live packet's [next_free] is [in_use]. A packet keeps its index for
     life, so queues and events can name it by an int. *)
  type nonrec t = {
    sim : Bfc_engine.Sim.t;
    mutable pkts : packet array;
    mutable n : int;
    mutable free : int; (* index of the last parked packet, -1 = none *)
    mutable n_free : int;
    mutable allocated : int;
    mutable recycled : int;
  }

  let create ~sim =
    { sim; pkts = [||]; n = 0; free = -1; n_free = 0; allocated = 0; recycled = 0 }

  let free_count t = t.n_free

  let allocated t = t.allocated

  let recycled t = t.recycled

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

  (* Full reset to [make]'s defaults: an acquired packet must be
     indistinguishable from a fresh one, or a stale [ecn_echo] / [bp_*] /
     cursor silently corrupts the next flow that reuses it. The INT-hop
     backing array is kept (records are reused via the cursor). *)
  let reset (p : packet) =
    p.flow <- None;
    p.src <- -1;
    p.dst <- -1;
    p.size <- 0;
    p.payload <- 0;
    p.seq <- 0;
    p.ecn <- false;
    p.ecn_echo <- false;
    p.prio <- 0;
    p.remaining <- 0;
    p.upstream_q <- 0;
    p.bp_in_port <- -1;
    p.bp_upq <- -1;
    p.bp_counted <- false;
    p.bp_sampled <- true;
    p.int_cnt <- 0;
    p.sent_at <- 0;
    p.enq_at <- 0;
    p.q_delay <- 0;
    p.hop_cnt <- 0;
    p.ctrl_a <- 0;
    p.ctrl_b <- 0;
    p.ints <- [||];
    p.path_hint <- -1

  let release t (p : packet) =
    if p.next_free <> in_use then invalid_arg "Packet.Pool.release: double release";
    let i = index t p in
    reset p;
    p.next_free <- t.free;
    t.free <- i;
    t.n_free <- t.n_free + 1

  let acquire t kind ~flow ~src ~dst ~size ~seq =
    if t.n_free = 0 then begin
      t.allocated <- t.allocated + 1;
      let p =
        build ~uid:(Bfc_engine.Sim.fresh_uid t.sim) kind flow ~src ~dst ~size ~payload:0 ~seq
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
      p.src <- src;
      p.dst <- dst;
      p.size <- size;
      p.seq <- seq;
      p
    end

  let data t ~flow ~seq ~payload ~extra_header =
    let f = match flow with Some f -> f | None -> invalid_arg "Packet.Pool.data: no flow" in
    let p =
      acquire t Data ~flow ~src:f.Flow.src ~dst:f.Flow.dst
        ~size:(payload + header_bytes + extra_header)
        ~seq
    in
    p.payload <- payload;
    p.prio <- f.Flow.prio_class;
    p

  let import t c =
    let p = acquire t c.kind ~flow:None ~src:c.src ~dst:c.dst ~size:c.size ~seq:c.seq in
    copy_fields ~src:c ~dst:p;
    p
end
