module Packet = Bfc_net.Packet
module Flow = Bfc_net.Flow
module Port = Bfc_net.Port
module Node = Bfc_net.Node
module Switch = Bfc_switch.Switch
module Fifo = Bfc_switch.Fifo
module Sim = Bfc_engine.Sim

(* BFC's queue assignment settings (flow-table slots per queue, the
   sticky window in HRTTs), the initial credit per queue, and the seed of
   the switch's assignment RNG. *)
let table_mult = 100

let sticky_hrtt_mult = 2.0

let credit_bytes = 25_000

let seed = 1

module Balance = struct
  type b = { bal : int array }

  let create ~queues ~initial = { bal = Array.make queues initial }

  let consume b ~queue ~bytes ~next =
    b.bal.(queue) <- b.bal.(queue) - bytes;
    next > 0 && b.bal.(queue) < next

  let replenish b ~queue ~bytes ~next =
    b.bal.(queue) <- b.bal.(queue) + bytes;
    next > 0 && b.bal.(queue) >= next

  let get b ~queue = b.bal.(queue)
end

type t = {
  sw : Switch.t;
  ft : Flow_table.t;
  dqa : Dqa.t;
  balances : Balance.b array; (* per egress *)
  uncredited : bool array; (* host-facing egress: downstream always drains *)
}

let now t = Sim.now (Switch.sim t.sw)

let data_queues t = Switch.(config t.sw).queues_per_port - 1

let ctrl_queue t = data_queues t

(* Gate: a queue is "paused" whenever its balance cannot cover its head. *)
let regate t ~egress ~queue =
  if not t.uncredited.(egress) then begin
    let q = Switch.queue t.sw ~egress ~queue in
    let next = Fifo.head_size q in
    let blocked = next > 0 && Balance.get t.balances.(egress) ~queue < next in
    Switch.set_queue_paused t.sw ~egress ~queue blocked
  end

let classify t _sw ~in_port:_ ~egress pkt =
  match Packet.kind pkt with
  | Packet.Data ->
    let ft = t.ft in
    let now = now t in
    let fid_hash = Flow.hash (Packet.fid pkt) in
    let e = Flow_table.slot ft ~egress ~fid_hash ~now in
    if Flow_table.vacant ft e ~now then Flow_table.set_q ft e (Dqa.assign t.dqa ~egress ~fid_hash);
    Flow_table.set_size ft e (Flow_table.size ft e + 1);
    Flow_table.set_last ft e now;
    Flow_table.q ft e
  | _ -> ctrl_queue t

let on_enqueue t _sw ~in_port:_ ~egress ~queue pkt =
  if Packet.kind pkt = Packet.Data then begin
    Packet.set_bp_upq pkt (Packet.upstream_q pkt);
    if queue < data_queues t then Dqa.mark_occupied t.dqa ~egress ~queue;
    (* the freshly enqueued packet may be the head of a starved queue *)
    regate t ~egress ~queue
  end

let grant_back t ~in_port ~upstream_q ~bytes =
  if in_port >= 0 && upstream_q >= 0 then begin
    (* hosts also run credit-gated NICs, so grant regardless *)
    let pkt =
      Packet.Pool.acquire (Switch.pool t.sw) Packet.Hop_credit ~flow:Packet.no_flow ~dst:(-1)
        ~size:Packet.ctrl_bytes ~seq:0
    in
    Packet.set_ctrl_a pkt upstream_q;
    Packet.set_ctrl_b pkt bytes;
    Switch.send_ctrl t.sw ~egress:in_port pkt
  end

let on_dequeue t _sw ~egress ~queue pkt =
  if Packet.kind pkt = Packet.Data then begin
    (* granting side: the packet has left our buffer; return its bytes to
       the upstream queue it came from *)
    grant_back t ~in_port:(Packet.bp_in_port pkt) ~upstream_q:(Packet.bp_upq pkt)
      ~bytes:(Packet.size pkt);
    (* sending side: we just consumed downstream credit *)
    if not t.uncredited.(egress) then begin
      let q = Switch.queue t.sw ~egress ~queue in
      let next = Fifo.head_size q in
      let blocked = Balance.consume t.balances.(egress) ~queue ~bytes:(Packet.size pkt) ~next in
      if blocked then Switch.set_queue_paused t.sw ~egress ~queue true
    end;
    (* bookkeeping identical to BFC *)
    let now = now t in
    let e = Flow_table.slot t.ft ~egress ~fid_hash:(Flow.hash (Packet.fid pkt)) ~now in
    Flow_table.set_size t.ft e (Int.max 0 (Flow_table.size t.ft e - 1));
    Flow_table.set_last t.ft e now;
    if queue < data_queues t then begin
      let q = Switch.queue t.sw ~egress ~queue in
      if Fifo.is_empty q then Dqa.mark_empty t.dqa ~egress ~queue
    end;
    Packet.set_upstream_q pkt queue
  end

let on_ctrl t _sw ~in_port pkt =
  match Packet.kind pkt with
  | Packet.Hop_credit ->
    let queue = Packet.ctrl_a pkt in
    if queue >= 0 && queue < Switch.(config t.sw).queues_per_port then begin
      let q = Switch.queue t.sw ~egress:in_port ~queue in
      let next = Fifo.head_size q in
      let unblock =
        Balance.replenish t.balances.(in_port) ~queue ~bytes:(Packet.ctrl_b pkt) ~next
      in
      if unblock then Switch.set_queue_paused t.sw ~egress:in_port ~queue false
    end;
    true
  | _ -> false

(* Setup-time code: runs once per switch, not per packet. *)
(* bfc-lint: control-plane *)
let attach sw =
  let n_ports = Switch.n_ports sw in
  let nq = Switch.(config sw).queues_per_port in
  let rng = Bfc_util.Rng.create (seed + (Switch.node_id sw * 104_729)) in
  let t =
    {
      sw;
      ft =
        Flow_table.create ~egresses:n_ports ~queues_per_port:nq ~mult:table_mult
          ~sticky:(Threshold.sticky_window sw ~mult:sticky_hrtt_mult);
      dqa = Dqa.create ~egresses:n_ports ~queues:(nq - 1) ~policy:Dqa.Dynamic ~rng;
      balances = Array.init n_ports (fun _ -> Balance.create ~queues:nq ~initial:credit_bytes);
      uncredited =
        Array.init n_ports (fun e ->
            (Port.peer (Switch.port sw e)).Node.kind = Node.Host);
    }
  in
  let hk = Switch.hooks sw in
  hk.Switch.classify <- classify t;
  hk.Switch.on_enqueue <- on_enqueue t;
  hk.Switch.on_dequeue <- on_dequeue t;
  hk.Switch.on_ctrl <- on_ctrl t;
  t
