module Packet = Bfc_net.Packet
module Flow = Bfc_net.Flow
module Node = Bfc_net.Node
module Port = Bfc_net.Port
module Sim = Bfc_engine.Sim
module Rng = Bfc_util.Rng

type scheme =
  | Bfc of { window_cap : int option; delay_cc : bool }
  | Dctcp of { slow_start : bool }
  | Dcqcn
  | Hpcc of { eta : float; perfect_rtx : bool }
  | Swift
  | Timely
  | Xpass of { target_loss : float; w_init : float }
  | Homa of Homa.params

type config = {
  scheme : scheme;
  mtu : int;
  extra_header : int;
  nic_queues : int;
  nic_policy : Bfc_switch.Sched.policy;
  respect_pause : bool;
  srf : bool;
  rto : Bfc_engine.Time.t;
  base_rtt : Bfc_engine.Time.t;
  bdp : int;
  line_gbps : float;
  flow_bdp : (Bfc_net.Flow.t -> int) option;
  nic_credit : bool;
  pause_watchdog : Bfc_engine.Time.t option;
  seed : int;
}

let default_config =
  {
    scheme = Bfc { window_cap = None; delay_cc = false };
    mtu = 1000;
    extra_header = 0;
    nic_queues = 129;
    nic_policy = Bfc_switch.Sched.Drr;
    respect_pause = true;
    srf = false;
    rto = Bfc_engine.Time.us 1000.0;
    base_rtt = Bfc_engine.Time.us 8.0;
    bdp = 100_000;
    line_gbps = 100.0;
    flow_bdp = None;
    nic_credit = false;
    pause_watchdog = None;
    seed = 7;
  }

type cc =
  | Cap of int (* window cap in bytes; max_int = unlimited *)
  | Cc_delay of Delay_cc.t
  | Cc_dctcp of Dctcp.t
  | Cc_hpcc of Hpcc.t
  | Cc_dcqcn of Dcqcn.t
  | Cc_swift of Swift.t
  | Cc_timely of Timely.t
  | Cc_xpass
  | Cc_homa

(* A sender knows its flow by ints only: the flow word its packets carry,
   the destination and the class. It never reads the flow's record, which
   the sim's flow table hands to another flow once this one is reclaimed,
   while a sender reclaimed before it finished may still be pumping. Late
   ACKs, grants and credits that arrive before the streaming reclaim read
   [fsize]; timers and credit pacing run only while the sender is
   unfinished. *)
type tx = {
  mutable fref : int; (* the flow word ([Packet.ref_of]); [Packet.no_flow] when unbound *)
  mutable fdst : int;
  mutable fprio : int;
  mutable fsize : int;
  mutable snd_nxt : int;
  mutable snd_una : int;
  mutable cc : cc;
  mutable nic_q : int; (* -1 for priority-mapped (Homa) *)
  mutable rtx : (int * int) list; (* pending retransmit ranges *)
  mutable rto_t : Sim.token; (* pending RTO event, 0 = none *)
  mutable finished : bool;
  mutable granted : int; (* homa grant offset *)
  mutable grant_prio : int;
  mutable unsched : int; (* homa unscheduled limit *)
  mutable fin_sent : bool;
  mutable chunk_seq : int; (* first byte of the chunk [next_chunk] last sized *)
}

(* ExpressPass credit source state: the receiver paces credits. *)
type credits = {
  mutable cr_rate : float; (* data bytes per ns the credits ask for *)
  mutable cr_w : float;
  mutable cr_sent : int;
  mutable cr_used : int;
  mutable cr_pacer : Sim.token; (* pending credit-pacer event, 0 = none *)
  mutable cr_feedback : Sim.ticker option;
  mutable cr_stop : bool;
}

(* Receiver-side reassembly: sorted disjoint [start, stop) ranges. *)
type rx = {
  mutable rref : int; (* the flow word of its first packet; [Packet.no_flow] when unbound *)
  mutable rsrc : int; (* the sender's node *)
  mutable expected : int; (* contiguous prefix received *)
  mutable ranges : (int * int) list; (* beyond the prefix *)
  mutable last_nack : Bfc_engine.Time.t;
  mutable last_cnp : Bfc_engine.Time.t;
  mutable complete : bool;
  credits : credits option; (* an ExpressPass receiver's only *)
}

type t = {
  sim : Sim.t;
  node : Node.t;
  idx : int; (* index into the per-sim host registry *)
  cfg : config;
  pool : Packet.Pool.t; (* the sim's packet table *)
  flows : Flow.Table.t; (* the sim's flow table *)
  nic : Nic.t;
  reg : reg;
  homa_recv : Homa.Receiver.t option;
  mutable complete_cbs : (Flow.t -> unit) array; (* in registration order *)
  owners : tx list array; (* per NIC queue: window-based flows to pump *)
  rng : Rng.t;
  mutable bytes_sent : int;
  mutable bytes_retransmitted : int;
  mutable stale : int; (* packets whose flow's slot holds another flow *)
}

(* One per sim: its hosts, and its flows' sender and receiver records,
   indexed by the flow's slot in the sim's flow table. Only a flow's
   source reaches its sender record and only its destination its
   receiver record: packets are routed to them, and each host's timers
   name it. *)
and reg = {
  mutable harr : t array;
  mutable hn : int;
  mutable txa : tx array;
  mutable rxa : rx array;
  mutable tx_built : int;
  mutable rx_built : int;
}

let nic t = t.nic

(* Several observers (run driver, sketches, flowlog writer) can all see
   completions. bfc-lint: control-plane *)
let add_on_complete t f = t.complete_cbs <- Array.append t.complete_cbs [| f |]

let cap_unlimited = Cap max_int

let blank_tx () =
  { fref = Packet.no_flow; fdst = -1; fprio = 0; fsize = 0; snd_nxt = 0; snd_una = 0;
    cc = cap_unlimited; nic_q = -1; rtx = []; rto_t = 0; finished = true; granted = 0; grant_prio = 0; unsched = 0;
    fin_sent = false; chunk_seq = 0 }

let blank_rx credits =
  { rref = Packet.no_flow; rsrc = -1; expected = 0; ranges = []; last_nack = 0; last_cnp = 0;
    complete = false; credits }

(* What a slot holds until a flow binds a record there, and after its
   record was detached. No flow word's id matches theirs, so they are
   never found, bound or written. *)
let no_tx = blank_tx ()

let no_rx = blank_rx None

(* The record bound to flow word [w] at its slot, else the sentinel: a
   record at the slot bound to another flow, or to none, is not [w]'s.
   Once [unbind] has run for [w], [w] finds the sentinel, whether or not
   its slot has gone to another flow since. *)
let find_tx r w =
  let s = Packet.ref_slot w in
  if s >= 0 && s < Array.length r.txa then begin
    let tx = Array.unsafe_get r.txa s in
    if Packet.ref_id tx.fref = Packet.ref_id w then tx else no_tx
  end
  else no_tx

let find_rx r w =
  let s = Packet.ref_slot w in
  if s >= 0 && s < Array.length r.rxa then begin
    let rx = Array.unsafe_get r.rxa s in
    if Packet.ref_id rx.rref = Packet.ref_id w then rx else no_rx
  end
  else no_rx

(* Make [slot] an index of both record arrays, which grow with the flow
   table. *)
let reserve r slot =
  let n = Array.length r.txa in
  if slot >= n then begin
    let cap = Int.max (slot + 1) (Int.max 64 (2 * n)) in
    let txa = Array.make cap no_tx and rxa = Array.make cap no_rx in
    Array.blit r.txa 0 txa 0 n;
    Array.blit r.rxa 0 rxa 0 n;
    r.txa <- txa;
    r.rxa <- rxa
  end

(* A record may go to its slot's next flow only when nothing outside the
   arrays can still reach it: an unfinished sender is still on its NIC
   queue's owner list, and a credit ticker's closure holds its receiver.
   Typed timers find their flow by its word, so they cannot reach a
   record bound to another flow. *)
let tx_reusable tx = tx.finished

let rx_reusable rx =
  rx.complete && match rx.credits with Some { cr_feedback = Some _; _ } -> false | _ -> true

(* The record for a flow starting at [slot], for the caller to
   reinitialise: the slot's reusable one, else a fresh one. *)
let bind_tx r slot =
  reserve r slot;
  let tx = r.txa.(slot) in
  if tx != no_tx && tx_reusable tx then tx
  else begin
    let tx = blank_tx () in
    r.txa.(slot) <- tx;
    r.tx_built <- r.tx_built + 1;
    tx
  end

let bind_rx t slot =
  let r = t.reg in
  reserve r slot;
  let rx = r.rxa.(slot) in
  if rx != no_rx && rx_reusable rx then rx
  else begin
    let credits =
      match t.cfg.scheme with
      | Xpass _ ->
        Some
          { cr_rate = 0.0; cr_w = 0.0; cr_sent = 0; cr_used = 0; cr_pacer = 0; cr_feedback = None;
            cr_stop = false }
      | _ -> None
    in
    let rx = blank_rx credits in
    r.rxa.(slot) <- rx;
    r.rx_built <- r.rx_built + 1;
    rx
  end

(* Drop per-flow sender/receiver state once a flow is fully done with it
   (streaming runs reclaim after a grace period, so per-flow memory stays
   bounded by the number of in-flight flows instead of growing with every
   flow ever started). A reusable record stays in its slot, unbound, for
   the slot's next flow; any other is detached, and the slot gets a fresh
   record at its next bind. Either way, late timers and drop notices for
   the flow find nothing. A late packet of a table-owned flow is stale
   before any handler runs ([receive]'s [Flow.Table.holds] check), but a
   caller's flow keeps its slot for the run, so its late packets reach the
   handlers and find nothing too: a late Data packet then binds the
   receiver afresh. *)
let unbind r w =
  let s = Packet.ref_slot w in
  let tx = find_tx r w in
  if tx != no_tx then
    if tx_reusable tx then tx.fref <- Packet.no_flow else r.txa.(s) <- no_tx;
  let rx = find_rx r w in
  if rx != no_rx then if rx_reusable rx then rx.rref <- Packet.no_flow else r.rxa.(s) <- no_rx

let flow_records t = (t.reg.tx_built, t.reg.rx_built)

let bytes_sent t = t.bytes_sent

let bytes_retransmitted t = t.bytes_retransmitted

let stale_packets t = t.stale

let watchdog_fires t = Nic.watchdog_fires t.nic

let mtu_wire cfg = cfg.mtu + Packet.header_bytes + cfg.extra_header

(* Return a fully-consumed packet to the sim's packet table. *)
let recycle t pkt = Packet.Pool.release t.pool pkt

(* NIC queue depth kept per window-based flow; the refill pump tops it up on
   every dequeue, so the flow still sends at line rate when permitted. *)
let depth_cap cfg = 4 * mtu_wire cfg

let window tx =
  match tx.cc with
  | Cap w -> w
  | Cc_delay d -> Delay_cc.window d
  | Cc_dctcp d -> Dctcp.window d
  | Cc_hpcc h -> Hpcc.window h
  | Cc_swift s -> Swift.window s
  | Cc_dcqcn _ | Cc_timely _ -> max_int (* rate-paced, not window-gated *)
  | Cc_xpass -> 0 (* credit-clocked *)
  | Cc_homa -> 0 (* grant-clocked *)

let is_window_based tx =
  match tx.cc with
  | Cap _ | Cc_delay _ | Cc_dctcp _ | Cc_hpcc _ | Cc_swift _ -> true
  | Cc_dcqcn _ | Cc_timely _ | Cc_xpass | Cc_homa -> false

let is_rate_based tx =
  match tx.cc with
  | Cc_dcqcn _ | Cc_timely _ -> true
  | Cap _ | Cc_delay _ | Cc_dctcp _ | Cc_hpcc _ | Cc_swift _ | Cc_xpass | Cc_homa -> false

let rate_of tx =
  match tx.cc with
  | Cc_dcqcn d -> Dcqcn.rate d
  | Cc_timely tm -> Timely.rate tm
  | Cap _ | Cc_delay _ | Cc_dctcp _ | Cc_hpcc _ | Cc_swift _ | Cc_xpass | Cc_homa -> 0.0

(* ------------------------------------------------------------------ *)
(* Transmit path                                                        *)

let make_data t tx ~seq ~len =
  let pkt =
    Packet.Pool.data t.pool ~flow:tx.fref ~dst:tx.fdst ~prio:tx.fprio ~seq ~payload:len
      ~extra_header:t.cfg.extra_header
  in
  if t.cfg.srf then Packet.Pool.set_remaining t.pool pkt (Int.max 0 (tx.fsize - tx.snd_una));
  t.bytes_sent <- t.bytes_sent + len;
  pkt

(* The FIN flag is set before the NIC takes the packet: once submitted,
   it may already be on the wire and no longer ours to touch. *)
let submit_data t tx pkt =
  if tx.fsize - Packet.seq pkt <= Packet.payload pkt && not tx.fin_sent then begin
    Packet.set_ctrl_b pkt 1;
    (* FIN flag *)
    tx.fin_sent <- true
  end;
  match t.cfg.scheme with
  | Homa _ ->
    (* priority-mapped NIC queue: ctrl is queue 0, data prio p -> queue p+1 *)
    let q = Int.min (t.cfg.nic_queues - 1) (Packet.prio pkt + 1) in
    Nic.submit t.nic ~queue:q pkt
  | _ -> Nic.submit t.nic ~queue:tx.nic_q pkt

(* Send limit as an absolute byte offset. *)
let send_limit tx =
  match tx.cc with
  | Cc_homa -> Int.min tx.fsize (Int.max tx.unsched tx.granted)
  | Cc_xpass -> tx.snd_nxt (* xpass sends only on credit arrival *)
  | Cc_dcqcn _ | Cc_timely _ -> tx.snd_nxt (* paced separately *)
  | _ ->
    let w = window tx in
    if w = max_int then tx.fsize else Int.min tx.fsize (tx.snd_una + w)

(* Length of the next chunk to send, with its first byte left in
   [tx.chunk_seq]; negative when nothing may be sent now. *)
let next_chunk t tx =
  (* retransmissions take precedence *)
  match tx.rtx with
  | (s, e) :: rest ->
    let len = Int.min t.cfg.mtu (e - s) in
    let rest = if s + len >= e then rest else (s + len, e) :: rest in
    tx.rtx <- rest;
    tx.chunk_seq <- s;
    len
  | [] ->
    let limit = send_limit tx in
    if tx.snd_nxt < limit then begin
      let len = Int.min t.cfg.mtu (limit - tx.snd_nxt) in
      tx.chunk_seq <- tx.snd_nxt;
      tx.snd_nxt <- tx.snd_nxt + len;
      len
    end
    else -1

let send_chunk t tx ~len =
  let seq = tx.chunk_seq in
  let pkt = make_data t tx ~seq ~len in
  (* a data packet carries its flow's class; Homa overrides it *)
  (match t.cfg.scheme with
  | Homa p ->
    Packet.set_prio pkt
      (if seq < tx.unsched then Homa.unsched_prio p ~size:tx.fsize else tx.grant_prio)
  | _ -> ());
  submit_data t tx pkt

let rec pump t tx =
  if not tx.finished then begin
    let gated_by_depth =
      is_window_based tx && Nic.queue_bytes t.nic ~queue:tx.nic_q >= depth_cap t.cfg
    in
    if not gated_by_depth then begin
      let len = next_chunk t tx in
      if len >= 0 then begin
        send_chunk t tx ~len;
        pump t tx
      end
    end
  end

(* Send every chunk [next_chunk] allows, ungated. Homa: unscheduled bytes
   go out at line rate immediately; the NIC queue absorbs them (that's
   Homa's behaviour: first RTT is blind). Grants reuse it. *)
let rec blast t tx =
  let len = next_chunk t tx in
  if len >= 0 then begin
    send_chunk t tx ~len;
    blast t tx
  end

(* Flow timers are typed [cls_flow_timeout] events: [a0] packs
   (host index << 2) | kind, kind 0 = RTO, 1 = xpass credit pacer,
   2 = delayed xpass credit stop, 3 = rate-pacer tick, and [a1] is the
   flow word. The executor re-finds the flow's tx/rx record by the word,
   so a timer of a reclaimed flow finds nothing and does nothing. *)
let timer t kind = (t.idx lsl 2) lor kind

let rto_kind = 0

let xpass_pace_kind = 1

let xpass_stop_kind = 2

let rate_pace_kind = 3

let rate_on_sent tx bytes = match tx.cc with Cc_dcqcn d -> Dcqcn.on_sent d ~bytes | _ -> ()

(* Pacing loop for rate-based senders (DCQCN, Timely). *)
let rate_pace t tx =
  if (not tx.finished) && (tx.snd_nxt < tx.fsize || tx.rtx <> []) then begin
    if is_rate_based tx then begin
      (* hold off while the NIC is badly backlogged (PFC pause) *)
      if Nic.queue_bytes t.nic ~queue:tx.nic_q < 8 * mtu_wire t.cfg then begin
        (match tx.rtx with
        | (s, e) :: rest ->
          let len = Int.min t.cfg.mtu (e - s) in
          tx.rtx <- (if s + len >= e then rest else (s + len, e) :: rest);
          t.bytes_retransmitted <- t.bytes_retransmitted + len;
          let pkt = make_data t tx ~seq:s ~len in
          submit_data t tx pkt;
          rate_on_sent tx len
        | [] ->
          if tx.snd_nxt < tx.fsize then begin
            let len = Int.min t.cfg.mtu (tx.fsize - tx.snd_nxt) in
            let pkt = make_data t tx ~seq:tx.snd_nxt ~len in
            tx.snd_nxt <- tx.snd_nxt + len;
            submit_data t tx pkt;
            rate_on_sent tx len
          end)
      end;
      let gap =
        let r = rate_of tx in
        if r <= 0.0 then Bfc_engine.Time.us 10.0
        else Int.max 1 (int_of_float (float_of_int (mtu_wire t.cfg) /. r))
      in
      Sim.post t.sim (Sim.now t.sim + gap) ~cls:Sim.cls_flow_timeout ~a0:(timer t rate_pace_kind)
        ~a1:tx.fref
    end
  end

(* ------------------------------------------------------------------ *)
(* Timers                                                               *)

let cancel_rto t tx =
  Sim.cancel_token t.sim tx.rto_t;
  tx.rto_t <- 0

let arm_rto t tx =
  cancel_rto t tx;
  if not tx.finished then
    tx.rto_t <-
      Sim.post_token t.sim
        (Sim.now t.sim + t.cfg.rto)
        ~cls:Sim.cls_flow_timeout ~a0:(timer t rto_kind) ~a1:tx.fref

let rto_fire t tx =
  tx.rto_t <- 0;
  if not tx.finished then begin
    (* Don't rewind while our NIC queue is paused or backlogged:
       the data is safe, just flow-controlled. *)
    let q = if tx.nic_q >= 0 then tx.nic_q else 0 in
    let held =
      tx.nic_q >= 0 && (Nic.queue_paused t.nic ~queue:q || Nic.queue_bytes t.nic ~queue:q > 0)
    in
    if not held then begin
      (match tx.cc with Cc_dctcp d -> Dctcp.on_timeout d | _ -> ());
      if tx.snd_nxt > tx.snd_una then begin
        t.bytes_retransmitted <- t.bytes_retransmitted + (tx.snd_nxt - tx.snd_una);
        tx.snd_nxt <- tx.snd_una;
        tx.rtx <- []
      end;
      pump t tx
    end;
    arm_rto t tx
  end

let rec remove_owner tx = function
  | [] -> []
  | o :: rest -> if o == tx then remove_owner tx rest else o :: remove_owner tx rest

let finish_tx t tx =
  if not tx.finished then begin
    tx.finished <- true;
    cancel_rto t tx;
    (* a stopped Dcqcn.t keeps its tickers and their closures reachable
       from [tx] until the slot is reused; nothing reads a finished
       sender's rate state *)
    (match tx.cc with
    | Cc_dcqcn d ->
      Dcqcn.stop d;
      tx.cc <- cap_unlimited
    | _ -> ());
    if tx.nic_q >= 1 then begin
      Nic.release_queue t.nic tx.nic_q;
      t.owners.(tx.nic_q) <- remove_owner tx t.owners.(tx.nic_q)
    end
  end

(* ------------------------------------------------------------------ *)
(* ACK / NACK / grant / credit handling (sender side)                   *)

let on_ack t pkt =
  let tx = find_tx t.reg (Packet.flow pkt) in
  if tx != no_tx then
    if not tx.finished then begin
      let prev = tx.snd_una in
      if Packet.seq pkt > tx.snd_una then begin
        tx.snd_una <- Packet.seq pkt;
        if tx.snd_nxt < tx.snd_una then tx.snd_nxt <- tx.snd_una;
        arm_rto t tx
      end;
      let acked = tx.snd_una - prev in
      (match tx.cc with
      | Cc_dctcp d ->
        Dctcp.on_ack d ~acked ~marked:(Packet.ecn_echo pkt) ~snd_una:tx.snd_una ~snd_nxt:tx.snd_nxt
      | Cc_hpcc h ->
        Hpcc.on_ack h ~hops:(Packet.Pool.int_hops t.pool pkt)
          ~nhops:(Packet.Pool.int_hop_count t.pool pkt) ~ack_seq:(Packet.seq pkt) ~snd_nxt:tx.snd_nxt
      | Cc_delay d ->
        let rtt = Sim.now t.sim - Packet.sent_at pkt in
        if Packet.sent_at pkt > 0 then Delay_cc.on_ack d ~rtt
      | Cc_swift sw ->
        let rtt = Sim.now t.sim - Packet.sent_at pkt in
        if Packet.sent_at pkt > 0 then Swift.on_ack sw ~rtt ~now:(Sim.now t.sim)
      | Cc_timely tm ->
        let rtt = Sim.now t.sim - Packet.sent_at pkt in
        if Packet.sent_at pkt > 0 then Timely.on_ack tm ~rtt
      | Cap _ | Cc_dcqcn _ | Cc_xpass | Cc_homa -> ());
      if tx.snd_una >= tx.fsize then finish_tx t tx else pump t tx
    end

let on_nack t pkt =
  let tx = find_tx t.reg (Packet.flow pkt) in
  if tx != no_tx then
    if (not tx.finished) && Packet.seq pkt >= tx.snd_una && Packet.seq pkt < tx.snd_nxt then begin
      t.bytes_retransmitted <- t.bytes_retransmitted + (tx.snd_nxt - Packet.seq pkt);
      tx.snd_nxt <- Packet.seq pkt;
      tx.rtx <- [];
      pump t tx
    end

let on_grant t pkt =
  let tx = find_tx t.reg (Packet.flow pkt) in
  if tx != no_tx then
    if Packet.ctrl_a pkt > tx.granted then begin
      tx.granted <- Packet.ctrl_a pkt;
      tx.grant_prio <- Packet.ctrl_b pkt;
      blast t tx
    end

let on_credit t pkt =
  let tx = find_tx t.reg (Packet.flow pkt) in
  if tx != no_tx then
    if (not tx.finished) && tx.snd_nxt < tx.fsize then begin
      let len = Int.min t.cfg.mtu (tx.fsize - tx.snd_nxt) in
      let p = make_data t tx ~seq:tx.snd_nxt ~len in
      (* echo the credit sequence so the receiver can measure credit waste *)
      Packet.set_ctrl_a p (Packet.ctrl_a pkt);
      tx.snd_nxt <- tx.snd_nxt + len;
      submit_data t tx p
    end

let on_cnp t pkt =
  let tx = find_tx t.reg (Packet.flow pkt) in
  if tx != no_tx then ( match tx.cc with Cc_dcqcn d -> Dcqcn.on_cnp d | _ -> ())

(* Byte ranges [(start, stop)] in lexicographic order, without the
   polymorphic compare. *)
let compare_range (a, b) (c, d) =
  let o = Int.compare a c in
  if o <> 0 then o else Int.compare b d

let on_drop_notice t ~flow ~seq ~len =
  let tx = find_tx t.reg flow in
  if tx != no_tx then
    if not tx.finished then begin
      tx.rtx <- List.merge compare_range [ (seq, seq + len) ] tx.rtx;
      t.bytes_retransmitted <- t.bytes_retransmitted + len;
      pump t tx
    end

(* ------------------------------------------------------------------ *)
(* Receive path                                                         *)

let insert_range rx ~start ~stop =
  (* merge [start, stop) into the prefix + ranges *)
  if stop > rx.expected then begin
    let ranges = List.merge compare_range [ (Int.max start rx.expected, stop) ] rx.ranges in
    (* coalesce *)
    let rec coalesce = function
      | (a, b) :: (c, d) :: rest when c <= b -> coalesce ((a, Int.max b d) :: rest)
      | r :: rest -> r :: coalesce rest
      | [] -> []
    in
    let ranges = coalesce ranges in
    (* absorb into the contiguous prefix *)
    let rec absorb exp = function
      | (a, b) :: rest when a <= exp -> absorb (Int.max exp b) rest
      | rest -> (exp, rest)
    in
    let exp, ranges = absorb rx.expected ranges in
    rx.expected <- exp;
    rx.ranges <- ranges
  end

let covered rx = rx.expected

(* The receiver record of [pkt]'s flow, bound on its first packet. *)
let get_rx t pkt flow =
  let w = Packet.flow pkt in
  let rx = find_rx t.reg w in
  if rx != no_rx then rx
  else begin
    let rx = bind_rx t (Packet.ref_slot w) in
    rx.rref <- w;
    rx.rsrc <- flow.Flow.src;
    rx.expected <- 0;
    rx.ranges <- [];
    rx.last_nack <- min_int / 2;
    rx.last_cnp <- min_int / 2;
    rx.complete <- false;
    (match rx.credits with
    | Some c ->
      c.cr_rate <- 0.0;
      c.cr_w <- 0.0;
      c.cr_sent <- 0;
      c.cr_used <- 0;
      c.cr_pacer <- 0;
      c.cr_feedback <- None;
      c.cr_stop <- false
    | None -> ());
    rx
  end

(* [flow] is the packet's flow word: a sender's or receiver's own, or a
   received packet's. *)
let ctrl_pkt t kind ~flow ~dst ~size ~seq =
  Packet.Pool.acquire t.pool kind ~flow ~dst ~size ~seq

let send_ctrl_pkt t kind ~flow ~dst ~size ~seq =
  Nic.submit_ctrl t.nic (ctrl_pkt t kind ~flow ~dst ~size ~seq)

let gbn_mode t =
  match t.cfg.scheme with
  | Homa _ -> false
  | Hpcc { perfect_rtx; _ } -> not perfect_rtx
  | _ -> true

(* ExpressPass receiver: credit pacing with loss-based feedback. A
   receiver without credit state (any other scheme's) does nothing. *)
let xpass_stop_credits t rx =
  match rx.credits with
  | Some c ->
    c.cr_stop <- true;
    Sim.cancel_token t.sim c.cr_pacer;
    (match c.cr_feedback with Some tk -> Sim.stop_ticker tk | None -> ());
    c.cr_pacer <- 0;
    c.cr_feedback <- None
  | None -> ()

let xpass_pace t rx c =
  if not c.cr_stop then begin
    let credit =
      ctrl_pkt t Packet.Credit ~flow:rx.rref ~dst:rx.rsrc ~size:Packet.ctrl_bytes ~seq:0
    in
    c.cr_sent <- c.cr_sent + 1;
    Packet.set_ctrl_a credit c.cr_sent;
    Nic.submit_ctrl t.nic credit;
    (* jitter the credit spacing (xpass does, to avoid synchronized credit
       bursts colliding at the rate limiter) *)
    let base = float_of_int (mtu_wire t.cfg) /. c.cr_rate in
    let jitter = 0.8 +. (0.4 *. Bfc_util.Rng.float t.rng) in
    let gap = Int.max 1 (int_of_float (base *. jitter)) in
    c.cr_pacer <-
      Sim.post_token t.sim (Sim.now t.sim + gap) ~cls:Sim.cls_flow_timeout
        ~a0:(timer t xpass_pace_kind) ~a1:rx.rref
  end

(* Upper bound of ExpressPass's credit-rate increase weight. *)
let xpass_w_max = 0.5

let xpass_start_credits t rx c ~target_loss ~w_init =
  if (not (Sim.token_pending t.sim c.cr_pacer)) && not c.cr_stop then begin
    let line = t.cfg.line_gbps /. 8.0 in
    c.cr_rate <- line /. 2.0;
    c.cr_w <- w_init;
    let last_sent = ref 0 and last_used = ref 0 in
    c.cr_feedback <-
      Some
        (Sim.every t.sim ~period:(2 * t.cfg.base_rtt) (fun () ->
             let sent = c.cr_sent - !last_sent and used = c.cr_used - !last_used in
             last_sent := c.cr_sent;
             last_used := c.cr_used;
             if sent > 0 then begin
               let loss = 1.0 -. (float_of_int used /. float_of_int sent) in
               if loss <= target_loss then begin
                 c.cr_w <- Float.min xpass_w_max ((c.cr_w +. xpass_w_max) /. 2.0);
                 c.cr_rate <- ((1.0 -. c.cr_w) *. c.cr_rate) +. (c.cr_w *. line)
               end
               else begin
                 c.cr_rate <- c.cr_rate *. (1.0 -. loss) *. (1.0 +. target_loss);
                 c.cr_w <- Float.max (c.cr_w /. 2.0) 0.01
               end;
               if c.cr_rate < line /. 1000.0 then c.cr_rate <- line /. 1000.0
             end));
    xpass_pace t rx c
  end

(* The record of [pkt]'s flow; [receive] has checked that its slot holds it. *)
let flow_of t pkt = Flow.Table.get t.flows (Packet.flow_slot pkt)

let on_data t pkt =
  let flow = flow_of t pkt in
  let rx = get_rx t pkt flow in
  let was = covered rx in
  if gbn_mode t then begin
    if Packet.seq pkt = rx.expected then rx.expected <- rx.expected + Packet.payload pkt
    else if Packet.seq pkt > rx.expected then begin
      (* gap: Go-Back-N NACK, at most one per RTT *)
      if Sim.now t.sim - rx.last_nack > t.cfg.base_rtt then begin
        rx.last_nack <- Sim.now t.sim;
        send_ctrl_pkt t Packet.Nack ~flow:(Packet.flow pkt) ~dst:flow.Flow.src
          ~size:Packet.ack_bytes ~seq:rx.expected
      end
    end
  end
  else insert_range rx ~start:(Packet.seq pkt) ~stop:(Packet.seq pkt + Packet.payload pkt);
  let now_cov = covered rx in
  if now_cov > was then begin
    if flow.Flow.first_byte < 0 then flow.Flow.first_byte <- Sim.now t.sim;
    flow.Flow.delivered <- now_cov
  end;
  (* per-scheme receiver reactions *)
  (match t.cfg.scheme with
  | Dcqcn ->
    if Packet.ecn pkt && Sim.now t.sim - rx.last_cnp > Dcqcn.cnp_interval then begin
      rx.last_cnp <- Sim.now t.sim;
      send_ctrl_pkt t Packet.Cnp ~flow:(Packet.flow pkt) ~dst:flow.Flow.src ~size:Packet.ctrl_bytes
        ~seq:0
    end
  | Homa _ -> (
    match t.homa_recv with
    | Some hr ->
      let grants = Homa.Receiver.on_data hr ~flow ~covered:now_cov in
      List.iter
        (fun g ->
          let gp =
            ctrl_pkt t Packet.Grant ~flow:(Packet.ref_of g.Homa.g_flow) ~dst:g.Homa.g_flow.Flow.src
              ~size:Packet.ctrl_bytes ~seq:0
          in
          Packet.set_ctrl_a gp g.Homa.g_offset;
          Packet.set_ctrl_b gp g.Homa.g_prio;
          Nic.submit_ctrl t.nic gp)
        grants
    | None -> ())
  | Xpass _ ->
    (match rx.credits with
    | Some c -> if Packet.ctrl_a pkt > 0 then c.cr_used <- c.cr_used + 1
    | None -> ());
    (* FIN: flow has no more data; stop crediting after the in-flight RTT *)
    if Packet.ctrl_b pkt = 1 then
      Sim.post t.sim
        (Sim.now t.sim + t.cfg.base_rtt)
        ~cls:Sim.cls_flow_timeout ~a0:(timer t xpass_stop_kind) ~a1:(Packet.flow pkt)
  | Bfc _ | Dctcp _ | Hpcc _ | Swift | Timely -> ());
  (* acknowledgements *)
  let ack_now =
    match t.cfg.scheme with
    | Homa _ | Xpass _ -> now_cov >= flow.Flow.size && not rx.complete
    | _ -> true
  in
  if ack_now then begin
    let ack =
      ctrl_pkt t Packet.Ack ~flow:(Packet.flow pkt) ~dst:flow.Flow.src ~size:Packet.ack_bytes
        ~seq:now_cov
    in
    Packet.set_ecn_echo ack (Packet.ecn pkt);
    (* Copy (never alias) the INT stack: [pkt] may be recycled the moment
       this handler returns, while the ack is still in flight. *)
    Packet.Pool.copy_int_hops t.pool ~src:pkt ~dst:ack;
    Packet.set_sent_at ack (Packet.sent_at pkt);
    Nic.submit_ctrl t.nic ack
  end;
  if now_cov >= flow.Flow.size && not rx.complete then begin
    rx.complete <- true;
    if flow.Flow.finish < 0 then flow.Flow.finish <- Sim.now t.sim;
    xpass_stop_credits t rx;
    for i = 0 to Array.length t.complete_cbs - 1 do
      t.complete_cbs.(i) flow
    done
  end

let on_credit_req t pkt =
  match t.cfg.scheme with
  | Xpass { target_loss; w_init } ->
    let rx = get_rx t pkt (flow_of t pkt) in
    (match rx.credits with
    | Some c -> xpass_start_credits t rx c ~target_loss ~w_init
    | None -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Flow start                                                           *)

let flow_bdp t flow =
  match t.cfg.flow_bdp with Some f -> f flow | None -> t.cfg.bdp

let make_cc t flow =
  let bdp = flow_bdp t flow in
  match t.cfg.scheme with
  | Bfc { window_cap; delay_cc } ->
    if delay_cc then
      Cc_delay (Delay_cc.create ~mtu:t.cfg.mtu ~bdp ~base_rtt:t.cfg.base_rtt)
    else begin
      (* a per-BDP cap scales with the flow's own path *)
      match window_cap with
      | None -> cap_unlimited
      | Some cap_bytes ->
        let scaled =
          if t.cfg.bdp = 0 then cap_bytes
          else int_of_float (float_of_int cap_bytes *. float_of_int bdp /. float_of_int t.cfg.bdp)
        in
        Cap (Int.max t.cfg.mtu scaled)
    end
  | Dctcp { slow_start } -> Cc_dctcp (Dctcp.create ~mtu:t.cfg.mtu ~bdp ~slow_start ~g:(1.0 /. 16.0))
  | Dcqcn -> Cc_dcqcn (Dcqcn.create t.sim ~line_gbps:t.cfg.line_gbps)
  | Hpcc { eta; _ } -> Cc_hpcc (Hpcc.create ~eta ~bdp ~base_rtt:t.cfg.base_rtt)
  | Swift -> Cc_swift (Swift.create ~mtu:t.cfg.mtu ~bdp ~base_rtt:t.cfg.base_rtt)
  | Timely ->
    Cc_timely
      (Timely.create ~line_gbps:t.cfg.line_gbps ~base_rtt:t.cfg.base_rtt
         ~t_low:(t.cfg.base_rtt + (t.cfg.base_rtt / 4))
         ~t_high:(2 * t.cfg.base_rtt))
  | Xpass _ -> Cc_xpass
  | Homa _ -> Cc_homa

let start_flow t flow =
  if flow.Flow.src <> t.node.Node.id then invalid_arg "Host.start_flow: not the source host";
  let cc = make_cc t flow in
  let needs_queue = match t.cfg.scheme with Homa _ -> false | _ -> true in
  let nic_q = if needs_queue then Nic.alloc_queue t.nic else -1 in
  let tx = bind_tx t.reg (Flow.Table.add t.flows flow) in
  tx.fref <- Packet.ref_of flow;
  tx.fdst <- flow.Flow.dst;
  tx.fprio <- flow.Flow.prio_class;
  tx.fsize <- flow.Flow.size;
  tx.snd_nxt <- 0;
  tx.snd_una <- 0;
  tx.cc <- cc;
  tx.nic_q <- nic_q;
  tx.rtx <- [];
  tx.rto_t <- 0;
  tx.finished <- false;
  tx.granted <- 0;
  tx.grant_prio <- 0;
  tx.unsched <- (match t.cfg.scheme with Homa p -> Int.min flow.Flow.size p.Homa.rtt_bytes | _ -> 0);
  tx.fin_sent <- false;
  tx.chunk_seq <- 0;
  if nic_q >= 1 && is_window_based tx then t.owners.(nic_q) <- tx :: t.owners.(nic_q);
  arm_rto t tx;
  (match t.cfg.scheme with
  | Xpass _ ->
    send_ctrl_pkt t Packet.Credit_req ~flow:tx.fref ~dst:tx.fdst ~size:Packet.ctrl_bytes
      ~seq:0
  | Dcqcn | Timely -> rate_pace t tx
  | Homa _ -> blast t tx
  | Bfc _ | Dctcp _ | Hpcc _ | Swift -> pump t tx)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)

(* The NIC refill hook: pump each window-based owner of the dequeued queue
   (a loop, not [List.iter], which would build a closure per dequeue). *)
let rec refill t = function
  | [] -> ()
  | tx :: rest ->
    pump t tx;
    refill t rest

let receive t ~in_port pkt =
  (* Every branch consumes the packet synchronously (handlers copy what
     they keep), so the host is the end of its life: recycle afterwards.
     A packet of a flow whose slot holds another flow now outlived its
     flow's reclaim: it is counted and touches no state. *)
  (match Packet.kind pkt with
  | Packet.Data | Packet.Ack | Packet.Nack | Packet.Grant | Packet.Credit | Packet.Credit_req
  | Packet.Cnp
    when not (Flow.Table.holds t.flows ~slot:(Packet.flow_slot pkt) ~id:(Packet.fid pkt)) ->
    t.stale <- t.stale + 1
  | Packet.Data -> on_data t pkt
  | Packet.Ack -> on_ack t pkt
  | Packet.Nack -> on_nack t pkt
  | Packet.Grant -> on_grant t pkt
  | Packet.Credit -> on_credit t pkt
  | Packet.Credit_req -> on_credit_req t pkt
  | Packet.Cnp -> on_cnp t pkt
  | Packet.Pause | Packet.Resume | Packet.Pause_bitmap | Packet.Hop_credit | Packet.Pfc ->
    let tap = Sim.tap t.sim in
    if Bfc_engine.Tap.listened tap Bfc_engine.Tap.Ctrl_rx then
      Bfc_engine.Tap.emit tap Bfc_engine.Tap.Ctrl_rx ~node:t.node.Node.id in_port
        (Packet.Pool.index t.pool pkt);
    Nic.on_ctrl t.nic pkt);
  recycle t pkt

(* Typed flow-timer and reclaim dispatch: one shared executor per class,
   on the sim's registry. A reclaim's [a0] is the source host's index and
   its [a1] the flow word: it unbinds both ends' records, and then the
   flow table takes the flow's record back. *)

type Bfc_engine.Sim.user += Host_reg of reg

let timeout_exec st a0 a1 =
  match st with
  | Host_reg r ->
    let t = Array.unsafe_get r.harr (a0 lsr 2) in
    let kind = a0 land 3 in
    if kind = rto_kind || kind = rate_pace_kind then begin
      let tx = find_tx r a1 in
      if tx != no_tx then if kind = rto_kind then rto_fire t tx else rate_pace t tx
    end
    else begin
      (* [no_rx] has no credit state *)
      let rx = find_rx r a1 in
      match rx.credits with
      | Some c -> if kind = xpass_pace_kind then xpass_pace t rx c else xpass_stop_credits t rx
      | None -> ()
    end
  | _ -> invalid_arg "Host.timeout_exec: foreign class state"

let reclaim_exec st a0 a1 =
  match st with
  | Host_reg r ->
    unbind r a1;
    Flow.Table.release (Array.unsafe_get r.harr a0).flows ~slot:(Packet.ref_slot a1)
      ~id:(Packet.ref_id a1)
  | _ -> invalid_arg "Host.reclaim_exec: foreign class state"

let reclaim_after t ~flow ~delay =
  Sim.post t.sim (Sim.now t.sim + Int.max 0 delay) ~cls:Sim.cls_flow_reclaim ~a0:t.idx
    ~a1:(Packet.ref_of flow)

let registry sim =
  match Sim.class_state sim ~cls:Sim.cls_flow_timeout with
  | Some (Host_reg r) -> r
  | _ ->
    let r = { harr = [||]; hn = 0; txa = [||]; rxa = [||]; tx_built = 0; rx_built = 0 } in
    Sim.register_class sim ~cls:Sim.cls_flow_timeout ~state:(Host_reg r) ~exec:timeout_exec;
    Sim.register_class sim ~cls:Sim.cls_flow_reclaim ~state:(Host_reg r) ~exec:reclaim_exec;
    r

let create ~sim ~node ~port ~config:cfg () =
  let r = registry sim in
  let nic =
    Nic.create ~sim ~node:node.Node.id ~port ~n_queues:cfg.nic_queues ~policy:cfg.nic_policy
      ~respect_pause:cfg.respect_pause ?pause_watchdog:cfg.pause_watchdog
      ?credit:(if cfg.nic_credit then Some Bfc_core.Credit_dataplane.credit_bytes else None)
      ()
  in
  let homa_recv = match cfg.scheme with Homa p -> Some (Homa.Receiver.create p) | _ -> None in
  let t =
    {
      sim;
      node;
      idx = r.hn;
      cfg;
      pool = Port.pool sim;
      flows = Port.flows sim;
      nic;
      reg = r;
      homa_recv;
      complete_cbs = [||];
      owners = Array.make cfg.nic_queues [];
      rng = Rng.create (cfg.seed + (node.Node.id * 65_537));
      bytes_sent = 0;
      bytes_retransmitted = 0;
      stale = 0;
    }
  in
  if r.hn = Array.length r.harr then begin
    let ncap = Int.max 16 (2 * r.hn) in
    let na = Array.make ncap t in
    Array.blit r.harr 0 na 0 r.hn;
    r.harr <- na
  end;
  r.harr.(r.hn) <- t;
  r.hn <- r.hn + 1;
  Nic.set_on_dequeue nic (fun q ->
      if q >= 0 && q < Array.length t.owners then refill t t.owners.(q));
  node.Node.handler <- (fun ~in_port pkt -> receive t ~in_port pkt);
  t
