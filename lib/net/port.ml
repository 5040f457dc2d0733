(* The transmitter is clock-based rather than event-based: [send] records
   when serialization will finish ([busy_until]) and schedules no completion
   event of its own. A device that wants the port back calls
   [ensure_wakeup], which posts one typed [cls_port_tx] event at
   [busy_until] — so an egress that goes idle with an empty queue costs
   zero events, and a backlogged egress costs one (allocation-free) wakeup
   per transmission instead of one fresh closure + handle per packet.

   Deliveries are typed events over FIFO rings: in-flight packets sit in
   a per-port ring (delivery times are monotone per port — sends are
   serialized and [prop] is constant), and a [cls_delivery] event pops the
   ring head when it fires. Control packets get a second ring: their
   delivery times are monotone among themselves (now + prop) but
   interleave arbitrarily with data deliveries, so the two streams cannot
   share one FIFO; the event's [a1] selects the ring. Every port of a sim
   registers in one per-sim registry ([Sim.user] state), and the shared
   executors reach the port by its registry index in [a0] — no per-event
   closure anywhere on the wire path. *)

type t = {
  sim : Bfc_engine.Sim.t;
  idx : int; (* index into the per-sim port registry, the [a0] of events *)
  gid : int;
  key : int option; (* [Some gid], built once: the canonical key of every delivery post *)
  gbps : float;
  prop : Bfc_engine.Time.t;
  peer : Node.t;
  peer_port : int;
  mutable busy_until : Bfc_engine.Time.t;
  mutable tx_bytes : int;
  mutable tx_packets : int;
  mutable on_idle : unit -> unit;
  mutable on_tx : (Packet.t -> unit) option; (* telemetry tap *)
  mutable fault : Packet.t -> bool; (* fault injection: drop on the wire? *)
  mutable dropped : int;
  mutable wake_t : Bfc_engine.Sim.token; (* lazy idle wakeup, 0 = none *)
  mutable ring : Packet.t array; (* in-flight data deliveries, circular FIFO *)
  mutable head : int;
  mutable count : int;
  mutable cring : Packet.t array; (* in-flight control deliveries *)
  mutable chead : int;
  mutable ccount : int;
  mutable remote : (Packet.t -> at:Bfc_engine.Time.t -> unit) option;
      (* cross-shard egress (PDES): when set, deliveries are handed to this
         capture hook instead of being scheduled on the local sim *)
}

(* ------------------------ per-sim registry ------------------------- *)

type reg = { mutable parr : t array; mutable pn : int }

type Bfc_engine.Sim.user += Port_reg of reg

let ring_pop t =
  let pkt = t.ring.(t.head) in
  t.head <- (t.head + 1) mod Array.length t.ring;
  t.count <- t.count - 1;
  pkt

let cring_pop t =
  let pkt = t.cring.(t.chead) in
  t.chead <- (t.chead + 1) mod Array.length t.cring;
  t.ccount <- t.ccount - 1;
  pkt

(* The two shared executors: every delivery and every transmit wakeup in
   a simulation dispatches to these two code paths, keyed by registry
   index — stable call targets instead of thousands of closures. *)
let deliver_exec st a0 a1 =
  match st with
  | Port_reg r ->
    let p = Array.unsafe_get r.parr a0 in
    Node.deliver p.peer ~in_port:p.peer_port (if a1 = 0 then ring_pop p else cring_pop p)
  | _ -> invalid_arg "Port.deliver_exec: foreign class state"

let tx_exec st a0 _a1 =
  match st with
  | Port_reg r -> (Array.unsafe_get r.parr a0).on_idle ()
  | _ -> invalid_arg "Port.tx_exec: foreign class state"

let registry sim =
  match Bfc_engine.Sim.class_state sim ~cls:Bfc_engine.Sim.cls_delivery with
  | Some (Port_reg r) -> r
  | _ ->
    let r = { parr = [||]; pn = 0 } in
    let state = Port_reg r in
    Bfc_engine.Sim.register_class sim ~cls:Bfc_engine.Sim.cls_delivery ~state
      ~exec:deliver_exec;
    Bfc_engine.Sim.register_class sim ~cls:Bfc_engine.Sim.cls_port_tx ~state ~exec:tx_exec;
    r

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
      busy_until = 0;
      tx_bytes = 0;
      tx_packets = 0;
      on_idle = ignore;
      on_tx = None;
      fault = (fun _ -> false);
      dropped = 0;
      wake_t = 0;
      ring = [||];
      head = 0;
      count = 0;
      cring = [||];
      chead = 0;
      ccount = 0;
      remote = None;
    }
  in
  if r.pn = Array.length r.parr then begin
    let ncap = max 64 (2 * r.pn) in
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

let ring_push t pkt =
  let cap = Array.length t.ring in
  if t.count = cap then begin
    (* seed new slots with [pkt]; stale slots are overwritten before use *)
    let ncap = if cap = 0 then 8 else cap * 2 in
    let nr = Array.make ncap pkt in
    for i = 0 to t.count - 1 do
      nr.(i) <- t.ring.((t.head + i) mod cap)
    done;
    t.ring <- nr;
    t.head <- 0
  end;
  t.ring.((t.head + t.count) mod Array.length t.ring) <- pkt;
  t.count <- t.count + 1

let cring_push t pkt =
  let cap = Array.length t.cring in
  if t.ccount = cap then begin
    let ncap = if cap = 0 then 8 else cap * 2 in
    let nr = Array.make ncap pkt in
    for i = 0 to t.ccount - 1 do
      nr.(i) <- t.cring.((t.chead + i) mod cap)
    done;
    t.cring <- nr;
    t.chead <- 0
  end;
  t.cring.((t.chead + t.ccount) mod Array.length t.cring) <- pkt;
  t.ccount <- t.ccount + 1

let send t pkt =
  let now = Bfc_engine.Sim.now t.sim in
  if now < t.busy_until then raise (Busy { gid = t.gid; now });
  let ser = Bfc_engine.Time.tx_time ~gbps:t.gbps ~bytes:pkt.Packet.size in
  t.busy_until <- now + ser;
  t.tx_bytes <- t.tx_bytes + pkt.Packet.size;
  t.tx_packets <- t.tx_packets + 1;
  (match t.on_tx with None -> () | Some f -> f pkt);
  if t.fault pkt then t.dropped <- t.dropped + 1
  else begin
    match t.remote with
    | None ->
      ring_push t pkt;
      Bfc_engine.Sim.post ?key:t.key t.sim (now + ser + t.prop)
        ~cls:Bfc_engine.Sim.cls_delivery ~a0:t.idx ~a1:0
    | Some f -> f pkt ~at:(now + ser + t.prop)
  end

let ensure_wakeup t =
  if
    Bfc_engine.Sim.now t.sim < t.busy_until
    && not (Bfc_engine.Sim.token_pending t.sim t.wake_t)
  then
    t.wake_t <-
      Bfc_engine.Sim.post_token t.sim t.busy_until ~cls:Bfc_engine.Sim.cls_port_tx ~a0:t.idx
        ~a1:0

let send_ctrl t pkt =
  if t.fault pkt then t.dropped <- t.dropped + 1
  else begin
    match t.remote with
    | None ->
      cring_push t pkt;
      Bfc_engine.Sim.post ?key:t.key t.sim
        (Bfc_engine.Sim.now t.sim + t.prop)
        ~cls:Bfc_engine.Sim.cls_delivery ~a0:t.idx ~a1:1
    | Some f -> f pkt ~at:(Bfc_engine.Sim.now t.sim + t.prop)
  end

let set_remote t f = t.remote <- Some f

let is_remote t = t.remote <> None

let set_fault t f = t.fault <- f

let faults_injected t = t.dropped

let hop_rtt t = 2 * t.prop
