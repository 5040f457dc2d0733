module Packet = Bfc_net.Packet
module Port = Bfc_net.Port
module Node = Bfc_net.Node
module Sim = Bfc_engine.Sim
module Tap = Bfc_engine.Tap

type ecn_config = { kmin : int; kmax : int }

type config = {
  queues_per_port : int;
  classes : int;
  policy : Sched.policy;
  buffer_bytes : int;
  ecn : ecn_config option;
  pfc : float option;
  int_stamping : bool;
  track_active_flows : bool;
  mtu : int;
  pause_watchdog : Bfc_engine.Time.t option;
}

(* Dynamic-threshold alpha of the shared buffer's admission rule. *)
let dt_alpha = 1.0

(* RED-style marking probability at [kmax] (DCQCN's setting). *)
let ecn_pmax = 1.0

(* A PFC-paused ingress resumes below this fraction of the pause
   threshold. *)
let pfc_resume_frac = 0.8

let default_config =
  {
    queues_per_port = 32;
    classes = 1;
    policy = Sched.Drr;
    buffer_bytes = 12_000_000;
    ecn = None;
    pfc = None;
    int_stamping = false;
    track_active_flows = false;
    mtu = 1000;
    pause_watchdog = None;
  }

type egress = {
  eidx : int;
  eport : Port.t;
  equeues : Fifo.t array;
  esched : Sched.t;
  mutable ebytes : int;
  mutable epfc_paused : bool;
  mutable epfc_since : Bfc_engine.Time.t;
  mutable epfc_total : int;
  mutable epfc_epoch : int; (* invalidates scheduled PFC watchdog checks *)
  ewd_since : Bfc_engine.Time.t array; (* per queue: pause start, -1 = not paused *)
  ewd_epoch : int array; (* invalidates scheduled per-queue watchdog checks *)
  eflows : Bfc_util.Int_table.Counter.t; (* flow id -> queued pkts, if tracking *)
}

type t = {
  sim : Sim.t;
  node : Node.t;
  idx : int; (* index into the per-sim switch registry, the [a0] of events *)
  cfg : config;
  pool : Packet.Pool.t; (* the sim's packet table *)
  tap : Tap.t; (* the sim's observation tap *)
  route : route_fn;
  egresses : egress array;
  buffer : Buffer.t;
  hk : hooks;
  mutable pfc_sent : bool array; (* per ingress: pause frame outstanding *)
  mutable drops : int;
  mutable data_drops : int;
  mutable tx_packets : int;
  mutable rx_packets : int;
  mutable watchdog_fires : int;
  mutable reboot_count : int;
  max_hrtt : Bfc_engine.Time.t;
  rng : Bfc_util.Rng.t;
}

and route_fn = t -> in_port:int -> Packet.t -> int

and hooks = {
  mutable classify : t -> in_port:int -> egress:int -> Packet.t -> int;
  mutable on_enqueue : t -> in_port:int -> egress:int -> queue:int -> Packet.t -> unit;
  mutable on_dequeue : t -> egress:int -> queue:int -> Packet.t -> unit;
  mutable on_drop : t -> in_port:int -> egress:int -> queue:int -> Packet.t -> unit;
  mutable on_ctrl : t -> in_port:int -> Packet.t -> bool;
  mutable admit : t -> egress:int -> queue:int -> Packet.t -> bool;
}

let nop_classify _ ~in_port:_ ~egress:_ pkt =
  (* Default: one FIFO per class. *)
  Packet.prio pkt

let default_hooks () =
  {
    classify = nop_classify;
    on_enqueue = (fun _ ~in_port:_ ~egress:_ ~queue:_ _ -> ());
    on_dequeue = (fun _ ~egress:_ ~queue:_ _ -> ());
    on_drop = (fun _ ~in_port:_ ~egress:_ ~queue:_ _ -> ());
    on_ctrl = (fun _ ~in_port:_ _ -> false);
    admit = (fun _ ~egress:_ ~queue:_ _ -> true);
  }

let hooks t = t.hk

let config t = t.cfg

let node_id t = t.node.Node.id

let emit_queue t kind ~egress ~queue a1 =
  Tap.emit t.tap kind ~node:t.node.Node.id (Tap.queue_key ~egress ~queue) a1

let[@inline] emit_pkt t kind ~egress ~queue pkt =
  if Tap.listened t.tap kind then emit_queue t kind ~egress ~queue (Packet.Pool.index t.pool pkt)

let sim t = t.sim

let pool t = t.pool

(* Return a consumed packet to the sim's packet table. *)
let recycle t pkt = Packet.Pool.release t.pool pkt

let make_pfc t =
  Packet.Pool.acquire t.pool Packet.Pfc ~flow:Packet.no_flow ~dst:(-1)
    ~size:Packet.ctrl_bytes ~seq:0

let n_ports t = Array.length t.egresses

let port t i = t.egresses.(i).eport

let queue t ~egress ~queue = t.egresses.(egress).equeues.(queue)

let queues t ~egress = t.egresses.(egress).equeues

let n_active t ~egress = Sched.n_active t.egresses.(egress).esched

let egress_bytes t ~egress = t.egresses.(egress).ebytes

let buffer_used t = Buffer.used t.buffer

let drops t = t.drops

let data_drops t = t.data_drops

let tx_packets t = t.tx_packets

let rx_packets t = t.rx_packets

let max_hop_rtt t = t.max_hrtt

let pfc_paused t ~egress = t.egresses.(egress).epfc_paused

let pfc_paused_ns t ~egress =
  let e = t.egresses.(egress) in
  e.epfc_total + if e.epfc_paused then Sim.now t.sim - e.epfc_since else 0

let active_flows t ~egress = Bfc_util.Int_table.Counter.length t.egresses.(egress).eflows

let send_ctrl t ~egress pkt = Port.send_ctrl t.egresses.(egress).eport pkt

(* ------------------------------------------------------------------ *)
(* Transmit path                                                       *)

let flow_track_add e pkt =
  let fid = Packet.fid pkt in
  if fid <> -1 then Bfc_util.Int_table.Counter.incr e.eflows fid

let flow_track_remove e pkt =
  let fid = Packet.fid pkt in
  if fid <> -1 then Bfc_util.Int_table.Counter.decr e.eflows fid

let pfc_check_resume t in_port =
  match t.cfg.pfc with
  | None -> ()
  | Some threshold_frac ->
    if t.pfc_sent.(in_port) then begin
      let threshold = threshold_frac *. float_of_int (Buffer.free t.buffer) in
      if float_of_int (Buffer.ingress_used t.buffer in_port) < pfc_resume_frac *. threshold
      then begin
        t.pfc_sent.(in_port) <- false;
        let pkt = make_pfc t in
        Packet.set_ctrl_b pkt 0;
        send_ctrl t ~egress:in_port pkt
      end
    end

let try_send t e =
  if not e.epfc_paused then begin
    if Port.busy e.eport then Port.ensure_wakeup e.eport
    else begin
      let pkt = Sched.take e.esched in
      if pkt != Packet.placeholder then begin
        let q = Sched.served e.esched in
        let size = Packet.size pkt and in_port = Packet.bp_in_port pkt in
        e.ebytes <- e.ebytes - size;
        Buffer.on_dequeue t.buffer ~in_port ~size;
        if in_port >= 0 then pfc_check_resume t in_port;
        if t.cfg.track_active_flows then flow_track_remove e pkt;
        t.hk.on_dequeue t ~egress:e.eidx ~queue:q.Fifo.idx pkt;
        emit_pkt t Tap.Dequeue ~egress:e.eidx ~queue:q.Fifo.idx pkt;
        if t.cfg.int_stamping && Packet.kind pkt = Packet.Data then
          Packet.Pool.add_int_hop t.pool pkt ~ts:(Sim.now t.sim)
            ~tx_bytes:(Port.tx_bytes e.eport + Packet.size pkt)
            ~qlen:e.ebytes ~gbps:(Port.gbps e.eport) ~link:(Port.gid e.eport);
        t.tx_packets <- t.tx_packets + 1;
        Port.send e.eport pkt;
        (* serialization takes >= 1 ns, so the port is busy now; if more
           traffic is queued, the idle wakeup pulls the next packet *)
        if Sched.n_active e.esched > 0 then Port.ensure_wakeup e.eport
      end
    end
  end

(* The pause watchdog (the standard PFC-watchdog defense, applied to BFC's
   per-queue pauses): a queue paused longer than the configured timeout is
   force-resumed, on the assumption that the Resume (or the link carrying
   it) was lost. Every pause assertion re-arms the deadline, so periodic
   bitmap refreshes keep a legitimately-paused queue paused. *)
let rec set_queue_paused t ~egress ~queue paused =
  let e = t.egresses.(egress) in
  if e.equeues.(queue).Fifo.paused <> paused then
    emit_queue t Tap.Queue_pause ~egress ~queue (Bool.to_int paused);
  Sched.set_paused e.esched e.equeues.(queue) paused;
  e.ewd_epoch.(queue) <- e.ewd_epoch.(queue) + 1;
  if paused then begin
    e.ewd_since.(queue) <- Sim.now t.sim;
    arm_queue_watchdog t e ~queue
  end
  else begin
    e.ewd_since.(queue) <- -1;
    try_send t e
  end

(* Watchdog checks are typed [cls_switch_ctrl] events: [a1] packs
   (epoch << 24) | (egress << 12) | (queue + 1), with queue slot 0
   reserved for the per-port PFC watchdog. [create] refuses switches the
   packing cannot hold (more than 4096 ports or 4095 queues per port);
   the epoch is bounded by the event budget, far below the remaining 39
   bits. *)
and arm_queue_watchdog t e ~queue =
  match t.cfg.pause_watchdog with
  | None -> ()
  | Some timeout ->
    Sim.post t.sim
      (Sim.now t.sim + timeout)
      ~cls:Sim.cls_switch_ctrl ~a0:t.idx
      ~a1:((e.ewd_epoch.(queue) lsl 24) lor (e.eidx lsl 12) lor (queue + 1))

and wd_fire t e ~queue epoch =
  if e.ewd_epoch.(queue) = epoch && e.equeues.(queue).Fifo.paused then begin
    t.watchdog_fires <- t.watchdog_fires + 1;
    emit_queue t Tap.Watchdog ~egress:e.eidx ~queue 0;
    set_queue_paused t ~egress:e.eidx ~queue false
  end

(* ------------------------------------------------------------------ *)
(* Receive path                                                        *)

let ecn_mark t q pkt =
  match t.cfg.ecn with
  | None -> ()
  | Some { kmin; kmax } ->
    if Packet.kind pkt = Packet.Data then begin
      let b = q.Fifo.bytes in
      if b > kmax then Packet.set_ecn pkt true
      else if b > kmin then begin
        let p = ecn_pmax *. float_of_int (b - kmin) /. float_of_int (kmax - kmin) in
        if Bfc_util.Rng.bernoulli t.rng p then Packet.set_ecn pkt true
      end
    end

let pfc_check_pause t in_port =
  match t.cfg.pfc with
  | None -> ()
  | Some threshold_frac ->
    if not t.pfc_sent.(in_port) then begin
      let threshold = threshold_frac *. float_of_int (Buffer.free t.buffer) in
      if float_of_int (Buffer.ingress_used t.buffer in_port) > threshold then begin
        t.pfc_sent.(in_port) <- true;
        let pkt = make_pfc t in
        Packet.set_ctrl_b pkt 1;
        send_ctrl t ~egress:in_port pkt
      end
    end

let pfc_unpause t e =
  e.epfc_paused <- false;
  e.epfc_total <- e.epfc_total + (Sim.now t.sim - e.epfc_since);
  e.epfc_epoch <- e.epfc_epoch + 1;
  emit_queue t Tap.Queue_pause ~egress:e.eidx ~queue:(-1) 0;
  try_send t e

let pfc_wd_fire t e epoch =
  if e.epfc_epoch = epoch && e.epfc_paused then begin
    t.watchdog_fires <- t.watchdog_fires + 1;
    emit_queue t Tap.Watchdog ~egress:e.eidx ~queue:(-1) 0;
    pfc_unpause t e
  end

let arm_pfc_watchdog t e =
  match t.cfg.pause_watchdog with
  | None -> ()
  | Some timeout ->
    Sim.post t.sim
      (Sim.now t.sim + timeout)
      ~cls:Sim.cls_switch_ctrl ~a0:t.idx
      ~a1:((e.epfc_epoch lsl 24) lor (e.eidx lsl 12))

(* ------------------------------------------------------------------ *)
(* Typed watchdog dispatch: one per-sim registry of switches, one shared
   executor. The event replays exactly the epoch-and-still-paused check
   the closure form made; a stale epoch (pause toggled or the switch
   rebooted since arming) makes the event a no-op. *)

type reg = { mutable sarr : t array; mutable sn : int }

type Bfc_engine.Sim.user += Switch_reg of reg

let watchdog_exec st a0 a1 =
  match st with
  | Switch_reg r ->
    let t = Array.unsafe_get r.sarr a0 in
    let epoch = a1 lsr 24 in
    let e = t.egresses.((a1 lsr 12) land 0xfff) in
    let q1 = a1 land 0xfff in
    if q1 = 0 then pfc_wd_fire t e epoch else wd_fire t e ~queue:(q1 - 1) epoch
  | _ -> invalid_arg "Switch.watchdog_exec: foreign class state"

let registry sim =
  match Sim.class_state sim ~cls:Sim.cls_switch_ctrl with
  | Some (Switch_reg r) -> r
  | _ ->
    let r = { sarr = [||]; sn = 0 } in
    Sim.register_class sim ~cls:Sim.cls_switch_ctrl ~state:(Switch_reg r) ~exec:watchdog_exec;
    r

let handle_pfc t ~in_port pkt =
  let e = t.egresses.(in_port) in
  let pause = Packet.ctrl_b pkt = 1 in
  if pause && not e.epfc_paused then begin
    e.epfc_paused <- true;
    e.epfc_since <- Sim.now t.sim;
    e.epfc_epoch <- e.epfc_epoch + 1;
    emit_queue t Tap.Queue_pause ~egress:e.eidx ~queue:(-1) 1;
    arm_pfc_watchdog t e
  end
  else if (not pause) && e.epfc_paused then pfc_unpause t e

let forward t ~in_port pkt =
  let egress = t.route t ~in_port pkt in
  let e = t.egresses.(egress) in
  let qidx = t.hk.classify t ~in_port ~egress pkt in
  let q = e.equeues.(qidx) in
  if
    (not (Buffer.admit t.buffer ~queue_bytes:q.Fifo.bytes ~size:(Packet.size pkt)))
    || not (t.hk.admit t ~egress ~queue:qidx pkt)
  then begin
    t.drops <- t.drops + 1;
    if Packet.kind pkt = Packet.Data then t.data_drops <- t.data_drops + 1;
    t.hk.on_drop t ~in_port ~egress ~queue:qidx pkt;
    emit_pkt t Tap.Drop ~egress ~queue:qidx pkt;
    (* Drop hooks and consumers only read the packet synchronously; the
       drop is its end of life, so it goes back to the pool here. *)
    recycle t pkt
  end
  else begin
    ecn_mark t q pkt;
    Packet.set_bp_in_port pkt in_port;
    Packet.set_enq_at pkt (Sim.now t.sim);
    Buffer.on_enqueue t.buffer ~in_port ~size:(Packet.size pkt);
    e.ebytes <- e.ebytes + Packet.size pkt;
    if t.cfg.track_active_flows then flow_track_add e pkt;
    Sched.push e.esched q pkt;
    t.hk.on_enqueue t ~in_port ~egress ~queue:qidx pkt;
    emit_pkt t Tap.Enqueue ~egress ~queue:qidx pkt;
    pfc_check_pause t in_port;
    try_send t e
  end

(* ------------------------------------------------------------------ *)
(* Fault injection support                                             *)

(* Crash-and-restart: the shared buffer is flushed (resident packets are
   lost and counted as drops), pause state, PFC latches and per-flow
   tracking reset — as if the dataplane program was reloaded. Upstream
   devices our pause counters held paused get no Resume (we crashed);
   recovering them is the pause watchdog's job. Returns the number of
   packets lost. *)
let reboot t =
  let flushed = ref 0 in
  Array.iter
    (fun e ->
      Sched.flush e.esched (fun pkt ->
          incr flushed;
          t.drops <- t.drops + 1;
          if Packet.kind pkt = Packet.Data then t.data_drops <- t.data_drops + 1;
          recycle t pkt);
      e.ebytes <- 0;
      if e.epfc_paused then begin
        e.epfc_paused <- false;
        e.epfc_total <- e.epfc_total + (Sim.now t.sim - e.epfc_since)
      end;
      e.epfc_epoch <- e.epfc_epoch + 1;
      Array.fill e.ewd_since 0 (Array.length e.ewd_since) (-1);
      for q = 0 to Array.length e.ewd_epoch - 1 do
        e.ewd_epoch.(q) <- e.ewd_epoch.(q) + 1
      done;
      Bfc_util.Int_table.Counter.reset e.eflows)
    t.egresses;
  Buffer.reset t.buffer;
  Array.fill t.pfc_sent 0 (Array.length t.pfc_sent) false;
  t.reboot_count <- t.reboot_count + 1;
  Tap.emit t.tap Tap.Reboot ~node:t.node.Node.id !flushed 0;
  !flushed

let reboots t = t.reboot_count

let watchdog_fires t = t.watchdog_fires

let queue_paused t ~egress ~queue = t.egresses.(egress).equeues.(queue).Fifo.paused

(* Telemetry gauge: paused queues across every egress (PFC-paused ports
   count as one each). Walks the queue arrays; called per sample tick, not
   per packet. *)
let paused_queues t =
  let n = ref 0 in
  Array.iter
    (fun e ->
      if e.epfc_paused then incr n;
      Array.iter (fun q -> if q.Fifo.paused then incr n) e.equeues)
    t.egresses;
  !n

let queue_paused_since t ~egress ~queue =
  let since = t.egresses.(egress).ewd_since.(queue) in
  if since < 0 then None else Some since

let receive t ~in_port pkt =
  t.rx_packets <- t.rx_packets + 1;
  match Packet.kind pkt with
  | Packet.Pfc | Packet.Pause | Packet.Resume | Packet.Pause_bitmap | Packet.Hop_credit ->
    if Tap.listened t.tap Tap.Ctrl_rx then
      Tap.emit t.tap Tap.Ctrl_rx ~node:t.node.Node.id in_port (Packet.Pool.index t.pool pkt);
    (* Control handlers consume the packet synchronously (handled or not,
       a control frame terminates here). *)
    if Packet.kind pkt = Packet.Pfc then handle_pfc t ~in_port pkt
    else ignore (t.hk.on_ctrl t ~in_port pkt);
    recycle t pkt
  | Packet.Data | Packet.Ack | Packet.Nack | Packet.Credit | Packet.Credit_req | Packet.Grant
  | Packet.Cnp ->
    forward t ~in_port pkt

let create ~sim ~node ~ports ~config:cfg ~route () =
  if Array.length ports > 4096 then invalid_arg "Switch.create: more than 4096 ports";
  if cfg.queues_per_port > 4095 then invalid_arg "Switch.create: more than 4095 queues per port";
  let r = registry sim in
  let pool = Port.pool sim in
  let n_ingress = Array.length ports in
  let quantum = cfg.mtu + Packet.header_bytes in
  let egresses =
    Array.mapi
      (fun i p ->
        let equeues =
          Array.init cfg.queues_per_port (fun qi ->
              Fifo.create ~pool ~idx:qi ~cls:(qi * cfg.classes / cfg.queues_per_port))
        in
        {
          eidx = i;
          eport = p;
          equeues;
          esched = Sched.create cfg.policy ~queues:equeues ~classes:cfg.classes ~quantum;
          ebytes = 0;
          epfc_paused = false;
          epfc_since = 0;
          epfc_total = 0;
          epfc_epoch = 0;
          ewd_since = Array.make cfg.queues_per_port (-1);
          ewd_epoch = Array.make cfg.queues_per_port 0;
          eflows = Bfc_util.Int_table.Counter.create ~size:64 ();
        })
      ports
  in
  let max_hrtt = Array.fold_left (fun acc p -> Int.max acc (Port.hop_rtt p)) 0 ports in
  let t =
    {
      sim;
      node;
      idx = r.sn;
      cfg;
      pool;
      tap = Sim.tap sim;
      route;
      egresses;
      buffer = Buffer.create ~total:cfg.buffer_bytes ~alpha:dt_alpha ~n_ingress;
      hk = default_hooks ();
      pfc_sent = Array.make n_ingress false;
      drops = 0;
      data_drops = 0;
      tx_packets = 0;
      rx_packets = 0;
      watchdog_fires = 0;
      reboot_count = 0;
      max_hrtt;
      rng = Bfc_util.Rng.create (0x5EED + node.Node.id);
    }
  in
  if r.sn = Array.length r.sarr then begin
    let ncap = Int.max 16 (2 * r.sn) in
    let ns = Array.make ncap t in
    Array.blit r.sarr 0 ns 0 r.sn;
    r.sarr <- ns
  end;
  r.sarr.(r.sn) <- t;
  r.sn <- r.sn + 1;
  Array.iter (fun e -> Port.set_on_idle e.eport (fun () -> try_send t e)) egresses;
  node.Node.handler <- (fun ~in_port pkt -> receive t ~in_port pkt);
  t
