(* The transmitter is clock-based rather than event-based: [send] records
   when serialization will finish ([busy_until]) and schedules no completion
   event of its own. A device that wants the port back calls
   [ensure_wakeup], which posts one typed [cls_port_tx] event at
   [busy_until] — so an egress that goes idle with an empty queue costs
   zero events, and a backlogged egress costs one (allocation-free) wakeup
   per transmission instead of one fresh closure + handle per packet.

   Deliveries are typed [cls_delivery] events that carry the port's
   registry index in [a0] and the packet's index in the sim's packet
   table in [a1], so an in-flight packet is held by nothing but its
   event — data and control deliveries alike, in whatever order their
   times interleave. Every port of a sim registers in one per-sim
   registry ([Sim.user] state), which also holds the sim's packet table
   ([pool]); the shared executors reach the port and the packet by
   index — no per-event closure, and no pointer store, anywhere on the
   wire path.

   A packet's life on this sim ends at a fault drop or a cross-shard
   hand-off: the port returns it to the table. *)

type t = {
  sim : Bfc_engine.Sim.t;
  idx : int; (* index into the per-sim port registry, the [a0] of events *)
  gid : int;
  key : int option; (* [Some gid], built once: the canonical key of every delivery post *)
  gbps : float;
  prop : Bfc_engine.Time.t;
  peer : Node.t;
  peer_port : int;
  pool : Packet.Pool.t; (* the sim's packet table *)
  tap : Bfc_engine.Tap.t; (* the sim's observation tap *)
  mutable busy_until : Bfc_engine.Time.t;
  mutable tx_bytes : int;
  mutable tx_packets : int;
  mutable on_idle : unit -> unit;
  mutable on_tx : (Packet.t -> unit) option; (* a second tx tap, see [set_on_tx] *)
  mutable fault : Packet.t -> bool; (* fault injection: drop on the wire? *)
  mutable dropped : int;
  mutable wake_t : Bfc_engine.Sim.token; (* lazy idle wakeup, 0 = none *)
  mutable remote : (Packet.t -> at:Bfc_engine.Time.t -> unit) option;
      (* cross-shard egress (PDES): when set, deliveries are handed to this
         capture hook instead of being scheduled on the local sim *)
}

(* ------------------------ per-sim registry ------------------------- *)

type reg = { mutable parr : t array; mutable pn : int; packets : Packet.Pool.t }

type Bfc_engine.Sim.user += Port_reg of reg

(* The two shared executors: every delivery and every transmit wakeup in
   a simulation dispatches to these two code paths, keyed by registry
   index — stable call targets instead of thousands of closures. *)
let deliver_exec st a0 a1 =
  match st with
  | Port_reg r ->
    let p = Array.unsafe_get r.parr a0 in
    Node.deliver p.peer ~in_port:p.peer_port (Packet.Pool.get r.packets a1)
  | _ -> invalid_arg "Port.deliver_exec: foreign class state"

let tx_exec st a0 _a1 =
  match st with
  | Port_reg r -> (Array.unsafe_get r.parr a0).on_idle ()
  | _ -> invalid_arg "Port.tx_exec: foreign class state"

let registry sim =
  match Bfc_engine.Sim.class_state sim ~cls:Bfc_engine.Sim.cls_delivery with
  | Some (Port_reg r) -> r
  | _ ->
    let r = { parr = [||]; pn = 0; packets = Packet.Pool.create ~sim } in
    let state = Port_reg r in
    Bfc_engine.Sim.register_class sim ~cls:Bfc_engine.Sim.cls_delivery ~state
      ~exec:deliver_exec;
    Bfc_engine.Sim.register_class sim ~cls:Bfc_engine.Sim.cls_port_tx ~state ~exec:tx_exec;
    r

let pool sim = (registry sim).packets

let create ~sim ~gid ~gbps ~prop ~peer ~peer_port =
  let r = registry sim in
  let t =
    {
      sim;
      idx = r.pn;
      gid;
      key = Some gid;
      gbps;
      prop;
      peer;
      peer_port;
      pool = r.packets;
      tap = Bfc_engine.Sim.tap sim;
      busy_until = 0;
      tx_bytes = 0;
      tx_packets = 0;
      on_idle = ignore;
      on_tx = None;
      fault = (fun _ -> false);
      dropped = 0;
      wake_t = 0;
      remote = None;
    }
  in
  if r.pn = Array.length r.parr then begin
    let ncap = Int.max 64 (2 * r.pn) in
    let np = Array.make ncap t in
    Array.blit r.parr 0 np 0 r.pn;
    r.parr <- np
  end;
  r.parr.(r.pn) <- t;
  r.pn <- r.pn + 1;
  t

let gid t = t.gid

let gbps t = t.gbps

let prop t = t.prop

let peer t = t.peer

let peer_port t = t.peer_port

let busy t = Bfc_engine.Sim.now t.sim < t.busy_until

let tx_bytes t = t.tx_bytes

let tx_packets t = t.tx_packets

let set_on_idle t f = t.on_idle <- f

let set_on_tx t f = t.on_tx <- Some f

exception Busy of { gid : int; now : Bfc_engine.Time.t }

let () =
  Printexc.register_printer (function
    | Busy { gid; now } ->
      Some (Printf.sprintf "Port.Busy (send on busy transmitter, port gid=%d, t=%dns)" gid now)
    | _ -> None)

(* A packet lost on the wire ends its life on this sim. *)
let drop t pkt =
  t.dropped <- t.dropped + 1;
  Packet.Pool.release t.pool pkt

(* Post the delivery, or hand the packet to another shard: the capture
   hook copies it, so the original ends its life here. *)
let deliver t pkt ~at =
  match t.remote with
  | None ->
    Bfc_engine.Sim.post ?key:t.key t.sim at ~cls:Bfc_engine.Sim.cls_delivery ~a0:t.idx
      ~a1:(Packet.Pool.index t.pool pkt)
  | Some f ->
    f pkt ~at;
    Packet.Pool.release t.pool pkt

let send t pkt =
  let now = Bfc_engine.Sim.now t.sim in
  if now < t.busy_until then raise (Busy { gid = t.gid; now });
  let ser = Bfc_engine.Time.tx_time ~gbps:t.gbps ~bytes:pkt.Packet.size in
  t.busy_until <- now + ser;
  t.tx_bytes <- t.tx_bytes + pkt.Packet.size;
  t.tx_packets <- t.tx_packets + 1;
  (match t.on_tx with None -> () | Some f -> f pkt);
  if Bfc_engine.Tap.listened t.tap Bfc_engine.Tap.Port_tx then
    Bfc_engine.Tap.emit t.tap Bfc_engine.Tap.Port_tx ~node:t.peer.Node.id t.gid
      (Packet.Pool.index t.pool pkt);
  if t.fault pkt then drop t pkt else deliver t pkt ~at:(now + ser + t.prop)

let ensure_wakeup t =
  if
    Bfc_engine.Sim.now t.sim < t.busy_until
    && not (Bfc_engine.Sim.token_pending t.sim t.wake_t)
  then
    t.wake_t <-
      Bfc_engine.Sim.post_token t.sim t.busy_until ~cls:Bfc_engine.Sim.cls_port_tx ~a0:t.idx
        ~a1:0

let send_ctrl t pkt =
  if t.fault pkt then drop t pkt else deliver t pkt ~at:(Bfc_engine.Sim.now t.sim + t.prop)

let set_remote t f = t.remote <- Some f

let set_fault t f = t.fault <- f

let faults_injected t = t.dropped

let hop_rtt t = 2 * t.prop
