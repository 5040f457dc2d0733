module Packet = Bfc_net.Packet
module Flow = Bfc_net.Flow
module Node = Bfc_net.Node
module Port = Bfc_net.Port
module Sim = Bfc_engine.Sim
module Rng = Bfc_util.Rng
module Slot_table = Bfc_util.Slot_table

type scheme =
  | Bfc of { window_cap : int option; delay_cc : bool }
  | Dctcp of { slow_start : bool }
  | Dcqcn of Dcqcn.params
  | Hpcc of { eta : float; max_stage : int; perfect_rtx : bool }
  | Swift of { target_mult : float; beta : float }
  | Timely
  | Xpass of { target_loss : float; w_init : float; w_max : float }
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
  nic_credit : int option;
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
    nic_credit = None;
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

type tx = {
  mutable flow : Flow.t;
  mutable fopt : Flow.t option; (* [Some flow], built once for every packet's flow field *)
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
  mutable retransmitted : int;
  mutable chunk_seq : int; (* first byte of the chunk [next_chunk] last sized *)
}

(* Receiver-side reassembly: sorted disjoint [start, stop) ranges. *)
type rx = {
  mutable rflow : Flow.t;
  mutable rfopt : Flow.t option; (* the sender's [Some rflow], from its first packet *)
  mutable expected : int; (* contiguous prefix received *)
  mutable ranges : (int * int) list; (* beyond the prefix *)
  mutable last_nack : Bfc_engine.Time.t;
  mutable last_cnp : Bfc_engine.Time.t;
  mutable complete : bool;
  (* ExpressPass credit source state (receiver paces credits): *)
  mutable cr_rate : float; (* data bytes per ns the credits ask for *)
  mutable cr_w : float;
  mutable cr_sent : int;
  mutable cr_used : int;
  mutable cr_pacer : Sim.token; (* pending credit-pacer event, 0 = none *)
  mutable cr_feedback : Sim.ticker option;
  mutable cr_stop : bool;
}

type t = {
  sim : Sim.t;
  node : Node.t;
  idx : int; (* index into the per-sim host registry, the [a0] of events *)
  cfg : config;
  pool : Packet.Pool.t; (* the sim's packet table *)
  nic : Nic.t;
  txs : tx Slot_table.t; (* flow id -> sender state *)
  rxs : rx Slot_table.t;
  homa_recv : Homa.Receiver.t option;
  mutable complete_cbs : (Flow.t -> unit) array; (* in registration order *)
  owners : tx list ref array; (* per NIC queue: window-based flows to pump *)
  rng : Rng.t;
  mutable bytes_sent : int;
  mutable bytes_retransmitted : int;
}

let nic t = t.nic

let config t = t.cfg

let on_complete t f = t.complete_cbs <- [| f |]

(* Several observers (run driver, sketches, flowlog writer) can all see
   completions. bfc-lint: control-plane *)
let add_on_complete t f = t.complete_cbs <- Array.append t.complete_cbs [| f |]

(* Per-flow records live in slot tables. A fresh slot gets a blank
   record; [start_flow] and [get_rx] reinitialise every field. *)
let no_flow = Flow.make ~id:(-1) ~src:(-1) ~dst:(-1) ~size:1 ~arrival:0 ()

let cap_unlimited = Cap max_int

let blank_tx () =
  { flow = no_flow; fopt = None; snd_nxt = 0; snd_una = 0; cc = cap_unlimited; nic_q = -1;
    rtx = []; rto_t = 0; finished = true; granted = 0; grant_prio = 0; unsched = 0;
    fin_sent = false; retransmitted = 0; chunk_seq = 0 }

let blank_rx () =
  { rflow = no_flow; rfopt = None; expected = 0; ranges = []; last_nack = 0; last_cnp = 0;
    complete = false; cr_rate = 0.0; cr_w = 0.0; cr_sent = 0; cr_used = 0; cr_pacer = 0;
    cr_feedback = None; cr_stop = false }

(* A slot's record may be reused only when nothing outside the table can
   still reach it: an unfinished sender is still on its NIC queue's owner
   list, and a credit ticker's closure holds its receiver. Typed timers
   find their flow by id, so they cannot reach a reused record. *)
let tx_reusable tx = tx.finished

let rx_reusable rx = match rx.cr_feedback with None -> rx.complete | Some _ -> false

(* Drop per-flow sender/receiver state once a flow is fully done with it
   (streaming runs reclaim after a grace period, so per-flow memory stays
   bounded by the number of in-flight flows instead of growing with every
   flow ever started). Packets for an unknown flow id are already ignored
   on every lookup path, so late stragglers are harmless. *)
let reclaim_flow_state t ~flow_id =
  Slot_table.reclaim t.txs ~id:flow_id ~reusable:tx_reusable ~blank:blank_tx;
  Slot_table.reclaim t.rxs ~id:flow_id ~reusable:rx_reusable ~blank:blank_rx

let flow_records t = (Slot_table.blanks t.txs, Slot_table.blanks t.rxs)

let bytes_sent t = t.bytes_sent

let bytes_retransmitted t = t.bytes_retransmitted

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
    Packet.Pool.data t.pool ~flow:tx.fopt ~seq ~payload:len ~extra_header:t.cfg.extra_header
  in
  if t.cfg.srf then pkt.Packet.remaining <- Int.max 0 (tx.flow.Flow.size - tx.snd_una);
  t.bytes_sent <- t.bytes_sent + len;
  pkt

let homa_data_prio t tx ~seq =
  match t.cfg.scheme with
  | Homa p -> if seq < tx.unsched then Homa.unsched_prio p ~size:tx.flow.Flow.size else tx.grant_prio
  | _ -> tx.flow.Flow.prio_class

(* The FIN flag is set before the NIC takes the packet: once submitted,
   it may already be on the wire and no longer ours to touch. *)
let submit_data t tx pkt =
  if tx.flow.Flow.size - pkt.Packet.seq <= pkt.Packet.payload && not tx.fin_sent then begin
    pkt.Packet.ctrl_b <- 1;
    (* FIN flag *)
    tx.fin_sent <- true
  end;
  match t.cfg.scheme with
  | Homa _ ->
    (* priority-mapped NIC queue: ctrl is queue 0, data prio p -> queue p+1 *)
    let q = Int.min (t.cfg.nic_queues - 1) (pkt.Packet.prio + 1) in
    Nic.submit t.nic ~queue:q pkt
  | _ -> Nic.submit t.nic ~queue:tx.nic_q pkt

(* Send limit as an absolute byte offset. *)
let send_limit tx =
  match tx.cc with
  | Cc_homa -> Int.min tx.flow.Flow.size (Int.max tx.unsched tx.granted)
  | Cc_xpass -> tx.snd_nxt (* xpass sends only on credit arrival *)
  | Cc_dcqcn _ | Cc_timely _ -> tx.snd_nxt (* paced separately *)
  | _ ->
    let w = window tx in
    if w = max_int then tx.flow.Flow.size else Int.min tx.flow.Flow.size (tx.snd_una + w)

(* Length of the next chunk to send, with its first byte left in
   [tx.chunk_seq]; negative when nothing may be sent now. *)
let next_chunk t tx =
  (* retransmissions take precedence *)
  match tx.rtx with
  | (s, e) :: rest ->
    let len = Int.min t.cfg.mtu (e - s) in
    let rest = if s + len >= e then rest else (s + len, e) :: rest in
    tx.rtx <- rest;
    tx.retransmitted <- tx.retransmitted + len;
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
  pkt.Packet.prio <- homa_data_prio t tx ~seq;
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

(* Flow timers are typed [cls_flow_timeout] events: [a1] packs
   (flow_id << 2) | kind, kind 0 = RTO, 1 = xpass credit pacer,
   2 = delayed xpass credit stop, 3 = rate-pacer tick. The executor
   re-finds the flow's tx/rx state by id — a reclaimed flow makes the
   event a benign no-op, exactly like the old closures' [finished]
   check. *)
let rto_kind = 0

let xpass_pace_kind = 1

let xpass_stop_kind = 2

let rate_pace_kind = 3

let rate_on_sent tx bytes = match tx.cc with Cc_dcqcn d -> Dcqcn.on_sent d ~bytes | _ -> ()

(* Pacing loop for rate-based senders (DCQCN, Timely). *)
let rate_pace t tx =
  if (not tx.finished) && (tx.snd_nxt < tx.flow.Flow.size || tx.rtx <> []) then begin
    if is_rate_based tx then begin
      (* hold off while the NIC is badly backlogged (PFC pause) *)
      if Nic.queue_bytes t.nic ~queue:tx.nic_q < 8 * mtu_wire t.cfg then begin
        (match tx.rtx with
        | (s, e) :: rest ->
          let len = Int.min t.cfg.mtu (e - s) in
          tx.rtx <- (if s + len >= e then rest else (s + len, e) :: rest);
          tx.retransmitted <- tx.retransmitted + len;
          t.bytes_retransmitted <- t.bytes_retransmitted + len;
          let pkt = make_data t tx ~seq:s ~len in
          submit_data t tx pkt;
          rate_on_sent tx len
        | [] ->
          if tx.snd_nxt < tx.flow.Flow.size then begin
            let len = Int.min t.cfg.mtu (tx.flow.Flow.size - tx.snd_nxt) in
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
      Sim.post t.sim (Sim.now t.sim + gap) ~cls:Sim.cls_flow_timeout ~a0:t.idx
        ~a1:((tx.flow.Flow.id lsl 2) lor rate_pace_kind)
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
        ~cls:Sim.cls_flow_timeout ~a0:t.idx
        ~a1:((tx.flow.Flow.id lsl 2) lor rto_kind)

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
    (match tx.cc with Cc_dcqcn d -> Dcqcn.stop d | _ -> ());
    if tx.nic_q >= 1 then begin
      Nic.release_queue t.nic tx.nic_q;
      t.owners.(tx.nic_q) := remove_owner tx !(t.owners.(tx.nic_q))
    end
  end

(* ------------------------------------------------------------------ *)
(* ACK / NACK / grant / credit handling (sender side)                   *)

let on_ack t pkt =
  match Slot_table.find_exn t.txs (Packet.flow_id pkt) with
  | exception Not_found -> ()
  | tx ->
    if not tx.finished then begin
      let prev = tx.snd_una in
      if pkt.Packet.seq > tx.snd_una then begin
        tx.snd_una <- pkt.Packet.seq;
        if tx.snd_nxt < tx.snd_una then tx.snd_nxt <- tx.snd_una;
        arm_rto t tx
      end;
      let acked = tx.snd_una - prev in
      (match tx.cc with
      | Cc_dctcp d ->
        Dctcp.on_ack d ~acked ~marked:pkt.Packet.ecn_echo ~snd_una:tx.snd_una ~snd_nxt:tx.snd_nxt
      | Cc_hpcc h ->
        Hpcc.on_ack h ~hops:pkt.Packet.int_hops ~nhops:pkt.Packet.int_cnt ~ack_seq:pkt.Packet.seq
          ~snd_nxt:tx.snd_nxt
      | Cc_delay d ->
        let rtt = Sim.now t.sim - pkt.Packet.sent_at in
        if pkt.Packet.sent_at > 0 then Delay_cc.on_ack d ~rtt
      | Cc_swift sw ->
        let rtt = Sim.now t.sim - pkt.Packet.sent_at in
        if pkt.Packet.sent_at > 0 then Swift.on_ack sw ~rtt ~now:(Sim.now t.sim)
      | Cc_timely tm ->
        let rtt = Sim.now t.sim - pkt.Packet.sent_at in
        if pkt.Packet.sent_at > 0 then Timely.on_ack tm ~rtt
      | Cap _ | Cc_dcqcn _ | Cc_xpass | Cc_homa -> ());
      if tx.snd_una >= tx.flow.Flow.size then finish_tx t tx else pump t tx
    end

let on_nack t pkt =
  match Slot_table.find_exn t.txs (Packet.flow_id pkt) with
  | exception Not_found -> ()
  | tx ->
    if (not tx.finished) && pkt.Packet.seq >= tx.snd_una && pkt.Packet.seq < tx.snd_nxt then begin
      t.bytes_retransmitted <- t.bytes_retransmitted + (tx.snd_nxt - pkt.Packet.seq);
      tx.snd_nxt <- pkt.Packet.seq;
      tx.rtx <- [];
      pump t tx
    end

let on_grant t pkt =
  match Slot_table.find_exn t.txs (Packet.flow_id pkt) with
  | exception Not_found -> ()
  | tx ->
    if pkt.Packet.ctrl_a > tx.granted then begin
      tx.granted <- pkt.Packet.ctrl_a;
      tx.grant_prio <- pkt.Packet.ctrl_b;
      blast t tx
    end

let on_credit t pkt =
  match Slot_table.find_exn t.txs (Packet.flow_id pkt) with
  | exception Not_found -> ()
  | tx ->
    if (not tx.finished) && tx.snd_nxt < tx.flow.Flow.size then begin
      let len = Int.min t.cfg.mtu (tx.flow.Flow.size - tx.snd_nxt) in
      let p = make_data t tx ~seq:tx.snd_nxt ~len in
      (* echo the credit sequence so the receiver can measure credit waste *)
      p.Packet.ctrl_a <- pkt.Packet.ctrl_a;
      tx.snd_nxt <- tx.snd_nxt + len;
      submit_data t tx p
    end

let on_cnp t pkt =
  match Slot_table.find_exn t.txs (Packet.flow_id pkt) with
  | exception Not_found -> ()
  | tx -> ( match tx.cc with Cc_dcqcn d -> Dcqcn.on_cnp d | _ -> ())

(* Byte ranges [(start, stop)] in lexicographic order, without the
   polymorphic compare. *)
let compare_range (a, b) (c, d) =
  let o = Int.compare a c in
  if o <> 0 then o else Int.compare b d

let on_drop_notice t ~flow_id ~seq ~len =
  match Slot_table.find_exn t.txs flow_id with
  | exception Not_found -> ()
  | tx ->
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

(* The receiver record for [pkt]'s flow, set up on its first packet. *)
let get_rx t pkt flow =
  match Slot_table.find_exn t.rxs flow.Flow.id with
  | rx -> rx
  | exception Not_found ->
    let rx = Slot_table.acquire t.rxs ~id:flow.Flow.id ~blank:blank_rx in
    rx.rflow <- flow;
    rx.rfopt <- pkt.Packet.flow;
    rx.expected <- 0;
    rx.ranges <- [];
    rx.last_nack <- min_int / 2;
    rx.last_cnp <- min_int / 2;
    rx.complete <- false;
    rx.cr_rate <- 0.0;
    rx.cr_w <- 0.0;
    rx.cr_sent <- 0;
    rx.cr_used <- 0;
    rx.cr_pacer <- 0;
    rx.cr_feedback <- None;
    rx.cr_stop <- false;
    rx

(* [flow] is the packet's flow field as stored: pass a per-flow option
   built once (or a received packet's own field), not a fresh [Some]. *)
let ctrl_pkt t kind ~flow ~dst ~size ~seq =
  Packet.Pool.acquire t.pool kind ~flow ~src:t.node.Node.id ~dst ~size ~seq

let send_ctrl_pkt t kind ~flow ~dst ~size ~seq =
  Nic.submit_ctrl t.nic (ctrl_pkt t kind ~flow ~dst ~size ~seq)

let gbn_mode t =
  match t.cfg.scheme with
  | Homa _ -> false
  | Hpcc { perfect_rtx; _ } -> not perfect_rtx
  | _ -> true

(* ExpressPass receiver: credit pacing with loss-based feedback. *)
let xpass_stop_credits t rx =
  rx.cr_stop <- true;
  Sim.cancel_token t.sim rx.cr_pacer;
  (match rx.cr_feedback with Some tk -> Sim.stop_ticker tk | None -> ());
  rx.cr_pacer <- 0;
  rx.cr_feedback <- None

let xpass_pace t rx =
  if not rx.cr_stop then begin
    let credit =
      ctrl_pkt t Packet.Credit ~flow:rx.rfopt ~dst:rx.rflow.Flow.src ~size:Packet.ctrl_bytes
        ~seq:0
    in
    rx.cr_sent <- rx.cr_sent + 1;
    credit.Packet.ctrl_a <- rx.cr_sent;
    Nic.submit_ctrl t.nic credit;
    (* jitter the credit spacing (xpass does, to avoid synchronized credit
       bursts colliding at the rate limiter) *)
    let base = float_of_int (mtu_wire t.cfg) /. rx.cr_rate in
    let jitter = 0.8 +. (0.4 *. Bfc_util.Rng.float t.rng) in
    let gap = Int.max 1 (int_of_float (base *. jitter)) in
    rx.cr_pacer <-
      Sim.post_token t.sim (Sim.now t.sim + gap) ~cls:Sim.cls_flow_timeout ~a0:t.idx
        ~a1:((rx.rflow.Flow.id lsl 2) lor xpass_pace_kind)
  end

let xpass_start_credits t rx ~target_loss ~w_init ~w_max =
  if (not (Sim.token_pending t.sim rx.cr_pacer)) && not rx.cr_stop then begin
    let line = t.cfg.line_gbps /. 8.0 in
    rx.cr_rate <- line /. 2.0;
    rx.cr_w <- w_init;
    let last_sent = ref 0 and last_used = ref 0 in
    rx.cr_feedback <-
      Some
        (Sim.every t.sim ~period:(2 * t.cfg.base_rtt) (fun () ->
             let sent = rx.cr_sent - !last_sent and used = rx.cr_used - !last_used in
             last_sent := rx.cr_sent;
             last_used := rx.cr_used;
             if sent > 0 then begin
               let loss = 1.0 -. (float_of_int used /. float_of_int sent) in
               if loss <= target_loss then begin
                 rx.cr_w <- Float.min w_max ((rx.cr_w +. w_max) /. 2.0);
                 rx.cr_rate <- ((1.0 -. rx.cr_w) *. rx.cr_rate) +. (rx.cr_w *. line)
               end
               else begin
                 rx.cr_rate <- rx.cr_rate *. (1.0 -. loss) *. (1.0 +. target_loss);
                 rx.cr_w <- Float.max (rx.cr_w /. 2.0) 0.01
               end;
               if rx.cr_rate < line /. 1000.0 then rx.cr_rate <- line /. 1000.0
             end));
    xpass_pace t rx
  end

let on_data t pkt =
  let flow = Packet.flow_exn pkt ~at:(Sim.now t.sim) in
  let rx = get_rx t pkt flow in
  let was = covered rx in
  if gbn_mode t then begin
    if pkt.Packet.seq = rx.expected then rx.expected <- rx.expected + pkt.Packet.payload
    else if pkt.Packet.seq > rx.expected then begin
      (* gap: Go-Back-N NACK, at most one per RTT *)
      if Sim.now t.sim - rx.last_nack > t.cfg.base_rtt then begin
        rx.last_nack <- Sim.now t.sim;
        send_ctrl_pkt t Packet.Nack ~flow:pkt.Packet.flow ~dst:flow.Flow.src
          ~size:Packet.ack_bytes ~seq:rx.expected
      end
    end
  end
  else insert_range rx ~start:pkt.Packet.seq ~stop:(pkt.Packet.seq + pkt.Packet.payload);
  let now_cov = covered rx in
  if now_cov > was then begin
    if flow.Flow.first_byte < 0 then flow.Flow.first_byte <- Sim.now t.sim;
    flow.Flow.delivered <- now_cov
  end;
  (* per-scheme receiver reactions *)
  (match t.cfg.scheme with
  | Dcqcn p ->
    if pkt.Packet.ecn && Sim.now t.sim - rx.last_cnp > p.Dcqcn.cnp_interval then begin
      rx.last_cnp <- Sim.now t.sim;
      send_ctrl_pkt t Packet.Cnp ~flow:pkt.Packet.flow ~dst:flow.Flow.src ~size:Packet.ctrl_bytes
        ~seq:0
    end
  | Homa _ -> (
    match t.homa_recv with
    | Some hr ->
      let grants = Homa.Receiver.on_data hr ~flow ~covered:now_cov in
      List.iter
        (fun g ->
          let gp =
            ctrl_pkt t Packet.Grant ~flow:(Some g.Homa.g_flow) ~dst:g.Homa.g_flow.Flow.src
              ~size:Packet.ctrl_bytes ~seq:0
          in
          gp.Packet.ctrl_a <- g.Homa.g_offset;
          gp.Packet.ctrl_b <- g.Homa.g_prio;
          Nic.submit_ctrl t.nic gp)
        grants
    | None -> ())
  | Xpass _ ->
    if pkt.Packet.ctrl_a > 0 then rx.cr_used <- rx.cr_used + 1;
    (* FIN: flow has no more data; stop crediting after the in-flight RTT *)
    if pkt.Packet.ctrl_b = 1 then
      Sim.post t.sim
        (Sim.now t.sim + t.cfg.base_rtt)
        ~cls:Sim.cls_flow_timeout ~a0:t.idx
        ~a1:((flow.Flow.id lsl 2) lor xpass_stop_kind)
  | Bfc _ | Dctcp _ | Hpcc _ | Swift _ | Timely -> ());
  (* acknowledgements *)
  let ack_now =
    match t.cfg.scheme with
    | Homa _ | Xpass _ -> now_cov >= flow.Flow.size && not rx.complete
    | _ -> true
  in
  if ack_now then begin
    let ack =
      ctrl_pkt t Packet.Ack ~flow:pkt.Packet.flow ~dst:flow.Flow.src ~size:Packet.ack_bytes
        ~seq:now_cov
    in
    ack.Packet.ecn_echo <- pkt.Packet.ecn;
    (* Copy (never alias) the INT stack: [pkt] may be recycled the moment
       this handler returns, while the ack is still in flight. *)
    Packet.copy_int_hops ~src:pkt ~dst:ack;
    ack.Packet.sent_at <- pkt.Packet.sent_at;
    Nic.submit_ctrl t.nic ack
  end;
  if now_cov >= flow.Flow.size && not rx.complete then begin
    rx.complete <- true;
    if flow.Flow.finish < 0 then flow.Flow.finish <- Sim.now t.sim;
    (match t.cfg.scheme with Xpass _ -> xpass_stop_credits t rx | _ -> ());
    for i = 0 to Array.length t.complete_cbs - 1 do
      t.complete_cbs.(i) flow
    done
  end

let on_credit_req t pkt =
  match t.cfg.scheme with
  | Xpass { target_loss; w_init; w_max } ->
    let flow = Packet.flow_exn pkt ~at:(Sim.now t.sim) in
    let rx = get_rx t pkt flow in
    xpass_start_credits t rx ~target_loss ~w_init ~w_max
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
      Cc_delay (Delay_cc.create ~mtu:t.cfg.mtu ~bdp ~base_rtt:t.cfg.base_rtt ~target_mult:2.5)
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
  | Dcqcn params ->
    Cc_dcqcn (Dcqcn.create t.sim ~params ~line_gbps:t.cfg.line_gbps ~on_rate_change:ignore)
  | Hpcc { eta; max_stage; _ } ->
    Cc_hpcc (Hpcc.create ~eta ~max_stage ~w_ai:80.0 ~bdp ~base_rtt:t.cfg.base_rtt)
  | Swift { target_mult; beta } ->
    Cc_swift (Swift.create ~mtu:t.cfg.mtu ~bdp ~base_rtt:t.cfg.base_rtt ~target_mult ~beta)
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
  let tx = Slot_table.acquire t.txs ~id:flow.Flow.id ~blank:blank_tx in
  tx.flow <- flow;
  tx.fopt <- Some flow;
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
  tx.retransmitted <- 0;
  tx.chunk_seq <- 0;
  if nic_q >= 1 && is_window_based tx then t.owners.(nic_q) := tx :: !(t.owners.(nic_q));
  arm_rto t tx;
  (match t.cfg.scheme with
  | Xpass _ ->
    send_ctrl_pkt t Packet.Credit_req ~flow:tx.fopt ~dst:flow.Flow.dst ~size:Packet.ctrl_bytes
      ~seq:0
  | Dcqcn _ | Timely -> rate_pace t tx
  | Homa _ -> blast t tx
  | Bfc _ | Dctcp _ | Hpcc _ | Swift _ -> pump t tx)

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
     they keep), so the host is the end of its life: recycle afterwards. *)
  (match pkt.Packet.kind with
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

(* Typed flow-timer and reclaim dispatch: one per-sim registry of hosts,
   one shared executor per class. A timer's [a1] packs (flow_id, kind); a
   reclaim's packs (flow_id, peer host index). *)

type reg = { mutable harr : t array; mutable hn : int }

type Bfc_engine.Sim.user += Host_reg of reg

let timeout_exec st a0 a1 =
  match st with
  | Host_reg r ->
    let t = Array.unsafe_get r.harr a0 in
    let fid = a1 lsr 2 in
    let kind = a1 land 3 in
    if kind = rto_kind then begin
      match Slot_table.find_exn t.txs fid with
      | exception Not_found -> ()
      | tx -> rto_fire t tx
    end
    else if kind = rate_pace_kind then begin
      match Slot_table.find_exn t.txs fid with
      | exception Not_found -> ()
      | tx -> rate_pace t tx
    end
    else begin
      match Slot_table.find_exn t.rxs fid with
      | exception Not_found -> ()
      | rx -> if kind = xpass_pace_kind then xpass_pace t rx else xpass_stop_credits t rx
    end
  | _ -> invalid_arg "Host.timeout_exec: foreign class state"

let peer_bits = 20

let peer_mask = (1 lsl peer_bits) - 1

let reclaim_exec st a0 a1 =
  match st with
  | Host_reg r ->
    let flow_id = a1 lsr peer_bits in
    reclaim_flow_state (Array.unsafe_get r.harr a0) ~flow_id;
    reclaim_flow_state (Array.unsafe_get r.harr (a1 land peer_mask)) ~flow_id
  | _ -> invalid_arg "Host.reclaim_exec: foreign class state"

let reclaim_after t ~peer ~flow_id ~delay =
  Sim.post t.sim (Sim.now t.sim + Int.max 0 delay) ~cls:Sim.cls_flow_reclaim ~a0:t.idx
    ~a1:((flow_id lsl peer_bits) lor peer.idx)

let registry sim =
  match Sim.class_state sim ~cls:Sim.cls_flow_timeout with
  | Some (Host_reg r) -> r
  | _ ->
    let r = { harr = [||]; hn = 0 } in
    Sim.register_class sim ~cls:Sim.cls_flow_timeout ~state:(Host_reg r) ~exec:timeout_exec;
    Sim.register_class sim ~cls:Sim.cls_flow_reclaim ~state:(Host_reg r) ~exec:reclaim_exec;
    r

let create ~sim ~node ~port ~config:cfg () =
  let r = registry sim in
  if r.hn > peer_mask then invalid_arg "Host.create: too many hosts on one sim";
  let nic =
    Nic.create ~sim ~node:node.Node.id ~port ~n_queues:cfg.nic_queues ~policy:cfg.nic_policy
      ~respect_pause:cfg.respect_pause ?pause_watchdog:cfg.pause_watchdog ?credit:cfg.nic_credit
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
      nic;
      txs = Slot_table.create ();
      rxs = Slot_table.create ();
      homa_recv;
      complete_cbs = [||];
      owners = Array.init cfg.nic_queues (fun _ -> ref []);
      rng = Rng.create (cfg.seed + (node.Node.id * 65_537));
      bytes_sent = 0;
      bytes_retransmitted = 0;
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
      if q >= 0 && q < Array.length t.owners then refill t !(t.owners.(q)));
  node.Node.handler <- (fun ~in_port pkt -> receive t ~in_port pkt);
  t
