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

(* A packet is eight words: five of them pack the small fields, the other
   three ([seq], [sent_at], [enq_at]) are plain. With its header that is a
   9-word block, one of OCaml 5's size classes, and it is all a queued
   packet costs: a queue links through its packets ([link]). No field is a
   pointer, so storing into a packet takes no write barrier. Every field
   is read and written through the accessors below; a setter raises
   [Invalid_argument] for a value outside its field's bit width.

   [hdr]:  bits 0-3 kind, 4-7 flags, 8-20 prio, 21-34 upstream_q,
           35-48 bp_in_port, 49-62 bp_upq
   [dims]: bits 0-15 size, 16-31 payload, 32-62 dst
   [slot]: bits 0-30 idx, 31-61 link, 62 parked
   [fref]: bits 0-31 flow id, 32-61 flow slot, 62 incast
   [ctrl]: bits 0-40 ctrl_a, 41-62 ctrl_b

   A field stores its value plus a bias, so that its sentinel [-1] is the
   field's zero ([ctrl_b] has no sentinel). [seq] keeps a whole word: a
   long-lived flow is 2^40 bytes. *)
type t = {
  mutable hdr : int;
  mutable dims : int;
  mutable slot : int;
  mutable fref : int;
  mutable seq : int;
  mutable sent_at : Bfc_engine.Time.t;
  mutable enq_at : Bfc_engine.Time.t;
  mutable ctrl : int;
}

let header_bytes = 48

let ack_bytes = 64

let ctrl_bytes = 64

(* --------------------------- Packed fields ----------------------------- *)

let[@inline] get w ~shift ~width ~bias = ((w lsr shift) land ((1 lsl width) - 1)) - bias

let[@inline never] out_of_range name v =
  invalid_arg (Printf.sprintf "Packet.set_%s: %d is out of range" name v)

(* [w] with the field at [shift] holding [v]. A value below [-bias] makes
   [u] negative, and so sets bits above [width] too. *)
let[@inline] put name w ~shift ~width ~bias v =
  let u = v + bias in
  if u lsr width <> 0 then out_of_range name v
  else w land lnot (((1 lsl width) - 1) lsl shift) lor (u lsl shift)

(* [kind_code]'s inverse *)
let kinds =
  [|
    Data; Ack; Nack; Credit; Credit_req; Grant; Pause; Resume; Pause_bitmap; Hop_credit; Pfc; Cnp;
  |]

let kind_code = function
  | Data -> 0
  | Ack -> 1
  | Nack -> 2
  | Credit -> 3
  | Credit_req -> 4
  | Grant -> 5
  | Pause -> 6
  | Resume -> 7
  | Pause_bitmap -> 8
  | Hop_credit -> 9
  | Pfc -> 10
  | Cnp -> 11

let[@inline] kind p = Array.unsafe_get kinds (p.hdr land 15)

let[@inline] set_kind p k = p.hdr <- p.hdr land lnot 15 lor kind_code k

let[@inline] prio p = get p.hdr ~shift:8 ~width:13 ~bias:1

let[@inline] put_prio w v = put "prio" w ~shift:8 ~width:13 ~bias:1 v

let[@inline] set_prio p v = p.hdr <- put_prio p.hdr v

let[@inline] upstream_q p = get p.hdr ~shift:21 ~width:14 ~bias:1

let[@inline] set_upstream_q p v = p.hdr <- put "upstream_q" p.hdr ~shift:21 ~width:14 ~bias:1 v

let[@inline] bp_in_port p = get p.hdr ~shift:35 ~width:14 ~bias:1

let[@inline] set_bp_in_port p v = p.hdr <- put "bp_in_port" p.hdr ~shift:35 ~width:14 ~bias:1 v

let[@inline] bp_upq p = get p.hdr ~shift:49 ~width:14 ~bias:1

let[@inline] set_bp_upq p v = p.hdr <- put "bp_upq" p.hdr ~shift:49 ~width:14 ~bias:1 v

let[@inline] size p = get p.dims ~shift:0 ~width:16 ~bias:0

let[@inline] put_size w v = put "size" w ~shift:0 ~width:16 ~bias:0 v

let[@inline] payload p = get p.dims ~shift:16 ~width:16 ~bias:0

let[@inline] put_payload w v = put "payload" w ~shift:16 ~width:16 ~bias:0 v

let[@inline] set_payload p v = p.dims <- put_payload p.dims v

let[@inline] dst p = get p.dims ~shift:32 ~width:31 ~bias:1

let[@inline] put_dst w v = put "dst" w ~shift:32 ~width:31 ~bias:1 v

let[@inline] pack_dims ~dst ~size ~payload = put_dst (put_payload (put_size 0 size) payload) dst

let[@inline] idx p = get p.slot ~shift:0 ~width:31 ~bias:1

let[@inline] set_idx p v = p.slot <- put "idx" p.slot ~shift:0 ~width:31 ~bias:1 v

let[@inline] link p = get p.slot ~shift:31 ~width:31 ~bias:1

let[@inline] set_link p v = p.slot <- put "link" p.slot ~shift:31 ~width:31 ~bias:1 v

let parked_bit = 1 lsl 62

let idx_mask = (1 lsl 31) - 1

let[@inline] parked p = p.slot land parked_bit <> 0

(* ----------------------------- Flow word ------------------------------ *)

let no_flow = 0

let incast_bit = 1 lsl 62

let ref_of (f : Flow.t) =
  let w = put "fid" 0 ~shift:0 ~width:32 ~bias:1 f.id in
  let w = put "flow_slot" w ~shift:32 ~width:30 ~bias:1 f.slot in
  if f.is_incast then w lor incast_bit else w

let[@inline] ref_id w = get w ~shift:0 ~width:32 ~bias:1

let[@inline] ref_slot w = get w ~shift:32 ~width:30 ~bias:1

let[@inline] flow p = p.fref

let[@inline] fid p = ref_id p.fref

let[@inline] flow_slot p = ref_slot p.fref

let[@inline] incast p = p.fref land incast_bit <> 0

let[@inline] seq p = p.seq

let[@inline] sent_at p = p.sent_at

let[@inline] set_sent_at p v = p.sent_at <- v

let[@inline] enq_at p = p.enq_at

let[@inline] set_enq_at p v = p.enq_at <- v

let[@inline] ctrl_a p = get p.ctrl ~shift:0 ~width:41 ~bias:1

let[@inline] put_ctrl_a w v = put "ctrl_a" w ~shift:0 ~width:41 ~bias:1 v

let[@inline] set_ctrl_a p v = p.ctrl <- put_ctrl_a p.ctrl v

let[@inline] ctrl_b p = get p.ctrl ~shift:41 ~width:22 ~bias:0

let[@inline] set_ctrl_b p v = p.ctrl <- put "ctrl_b" p.ctrl ~shift:41 ~width:22 ~bias:0 v

(* ------------------------------- Flags --------------------------------- *)

let flag_ecn = 1 lsl 4

let flag_ecn_echo = 1 lsl 5

let flag_bp_counted = 1 lsl 6

let flag_bp_sampled = 1 lsl 7

let[@inline] set_flag p m b = p.hdr <- (if b then p.hdr lor m else p.hdr land lnot m)

let[@inline] ecn p = p.hdr land flag_ecn <> 0

let[@inline] set_ecn p b = set_flag p flag_ecn b

let[@inline] ecn_echo p = p.hdr land flag_ecn_echo <> 0

let[@inline] set_ecn_echo p b = set_flag p flag_ecn_echo b

let[@inline] bp_counted p = p.hdr land flag_bp_counted <> 0

let[@inline] set_bp_counted p b = set_flag p flag_bp_counted b

let[@inline] bp_sampled p = p.hdr land flag_bp_sampled <> 0

let[@inline] set_bp_sampled p b = set_flag p flag_bp_sampled b

(* [make]'s [hdr] for a [Data] packet: only [bp_sampled] set, [prio] and
   [upstream_q] 0, [bp_in_port] and [bp_upq] -1. *)
let default_hdr = flag_bp_sampled lor (1 lsl 8) lor (1 lsl 21)

let default_dims = pack_dims ~dst:(-1) ~size:0 ~payload:0

let default_ctrl = put_ctrl_a 0 0

let build kind fref ~dst ~size ~payload ~seq ~prio =
  {
    hdr = put_prio (default_hdr lor kind_code kind) prio;
    dims = pack_dims ~dst ~size ~payload;
    slot = 0;
    fref;
    seq;
    sent_at = 0;
    enq_at = 0;
    ctrl = default_ctrl;
  }

let make kind ?flow ~dst ~size ?(payload = 0) ?(seq = 0) ?(prio = 0) () =
  let fref = match flow with Some f -> ref_of f | None -> no_flow in
  build kind fref ~dst ~size ~payload ~seq ~prio

let placeholder = build Data no_flow ~dst:(-1) ~size:0 ~payload:0 ~seq:0 ~prio:0

let data ~flow ~seq ~payload ?(extra_header = 0) () =
  make Data ~flow ~dst:flow.Flow.dst
    ~size:(payload + header_bytes + extra_header)
    ~payload ~seq ~prio:flow.prio_class ()

(* -------------------------------- Pool --------------------------------- *)

module Pool = struct
  type packet = t

  (* The per-sim packet table: [pkts] maps an index to its packet, for
     every packet this table has seen (live or parked). Parked packets
     carry the parked bit and form a LIFO list threaded through [link],
     headed by [free]. A live packet's [link] belongs to the queue that
     holds it ({!Bfc_switch.Fifo}): a packet is never queued and parked at
     once, so the two lists share the bits. A packet keeps its index for
     life, so queues and events can name it by an int.

     The side tables hold what only one scheme reads, by packet index:
     HPCC's INT stack ([int_hops], of which the first [int_cnt] records
     are valid), a BFC pause bitmap's payload ([bitmaps]) and the SRF
     header field ([remaining]). Each stays [[||]] until its first use, so
     a run without INT stamping, bitmaps or SRF pays nothing for them, and
     grows to the capacity of [pkts]. *)
  type nonrec t = {
    mutable pkts : packet array;
    mutable n : int;
    mutable free : int; (* index of the last parked packet, -1 = none *)
    mutable n_free : int;
    mutable allocated : int;
    mutable recycled : int;
    mutable int_hops : int_hop array array;
    mutable int_cnt : int array;
    mutable bitmaps : int array array;
    mutable remaining : int array;
  }

  let create () =
    {
      pkts = [||];
      n = 0;
      free = -1;
      n_free = 0;
      allocated = 0;
      recycled = 0;
      int_hops = [||];
      int_cnt = [||];
      bitmaps = [||];
      remaining = [||];
    }

  let free_count t = t.n_free

  let allocated t = t.allocated

  let recycled t = t.recycled

  let side_slots t = Array.length t.int_cnt + Array.length t.bitmaps + Array.length t.remaining

  let get t i = t.pkts.(i)

  let holds t i = i >= 0 && i < t.n

  (* Give [p] the next index (one pointer store per packet, ever). *)
  let register t p =
    if t.n = Array.length t.pkts then begin
      let np = Array.make (Int.max 64 (2 * t.n)) p in
      Array.blit t.pkts 0 np 0 t.n;
      t.pkts <- np
    end;
    t.pkts.(t.n) <- p;
    set_idx p t.n;
    t.n <- t.n + 1;
    t.n - 1

  let index t p =
    let i = idx p in
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

  (* ----------------------------- Remaining ----------------------------- *)

  let remaining t p =
    let i = index t p in
    if i < Array.length t.remaining then t.remaining.(i) else 0

  let set_remaining t p v =
    let i = index t p in
    if i < Array.length t.remaining then t.remaining.(i) <- v
    else if v <> 0 then begin
      t.remaining <- widen t t.remaining 0;
      t.remaining.(i) <- v
    end

  (* ------------------------------ Life cycle --------------------------- *)

  (* Full reset to [make]'s defaults: an acquired packet must be
     indistinguishable from a fresh one, or a stale [ecn_echo] / [bp_*] /
     INT cursor / bitmap silently corrupts the next flow that reuses it.
     The INT-hop records are kept (they are reused via the cursor). *)
  let reset t (p : packet) =
    p.hdr <- default_hdr;
    p.dims <- default_dims;
    p.fref <- no_flow;
    p.seq <- 0;
    p.sent_at <- 0;
    p.enq_at <- 0;
    p.ctrl <- default_ctrl;
    let i = idx p in
    if i < Array.length t.int_cnt then t.int_cnt.(i) <- 0;
    if i < Array.length t.bitmaps then t.bitmaps.(i) <- [||];
    if i < Array.length t.remaining then t.remaining.(i) <- 0

  let release t (p : packet) =
    if parked p then invalid_arg "Packet.Pool.release: double release";
    let i = index t p in
    reset t p;
    set_link p t.free;
    p.slot <- p.slot lor parked_bit;
    t.free <- i;
    t.n_free <- t.n_free + 1

  let acquire t kind ~flow ~dst ~size ~seq =
    if t.n_free = 0 then begin
      t.allocated <- t.allocated + 1;
      let p = build kind flow ~dst ~size ~payload:0 ~seq ~prio:0 in
      ignore (register t p);
      p
    end
    else begin
      t.n_free <- t.n_free - 1;
      let p = t.pkts.(t.free) in
      t.free <- link p;
      (* keep the index; [link] reads -1 and the parked bit clears *)
      p.slot <- p.slot land idx_mask;
      t.recycled <- t.recycled + 1;
      set_kind p kind;
      p.fref <- flow;
      p.dims <- pack_dims ~dst ~size ~payload:0;
      p.seq <- seq;
      p
    end

  let data t ~flow ~dst ~prio ~seq ~payload ~extra_header =
    let p = acquire t Data ~flow ~dst ~size:(payload + header_bytes + extra_header) ~seq in
    set_payload p payload;
    set_prio p prio;
    p
end
