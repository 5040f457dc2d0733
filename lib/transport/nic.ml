module Packet = Bfc_net.Packet
module Port = Bfc_net.Port
module Fifo = Bfc_switch.Fifo
module Sched = Bfc_switch.Sched

module Balance = Bfc_core.Credit_dataplane.Balance

type t = {
  sim : Bfc_engine.Sim.t;
  node : int; (* the host's node id, the [node] of its tap events *)
  idx : int; (* index into the per-sim NIC registry, the [a0] of events *)
  port : Port.t;
  queues : Fifo.t array;
  sched : Sched.t;
  respect_pause : bool;
  mutable pfc_paused : bool;
  occupants : int array;
  mutable rr : int;
  mutable on_dequeue : int -> unit;
  mutable backlog : int;
  credit : Balance.b option; (* lossless-BFC variant: gate data queues *)
  pause_watchdog : Bfc_engine.Time.t option;
  ctrl_paused : bool array; (* queue paused by a ctrl frame (vs credit gating) *)
  wd_epoch : int array; (* invalidates scheduled per-queue watchdog checks *)
  mutable pfc_epoch : int;
  mutable watchdog_fires : int;
  mutable on_pause : queue:int -> paused:bool -> unit; (* a second pause tap, see [set_on_pause] *)
}

(* A ctrl-frame pause transition: the second tap, then the sim's. *)
let pause_changed t ~queue paused =
  t.on_pause ~queue ~paused;
  Bfc_engine.Tap.emit (Bfc_engine.Sim.tap t.sim) Bfc_engine.Tap.Nic_pause ~node:t.node queue
    (Bool.to_int paused)

let try_send t =
  if not t.pfc_paused then begin
    if Port.busy t.port then Port.ensure_wakeup t.port
    else begin
      let pkt = Sched.take t.sched in
      if pkt != Packet.placeholder then begin
        let q = Sched.served t.sched in
        t.backlog <- t.backlog - Packet.size pkt;
        if Packet.kind pkt = Packet.Data then begin
          Packet.set_upstream_q pkt q.Fifo.idx;
          match t.credit with
          | Some b when q.Fifo.idx > 0 ->
            let next = Fifo.head_size q in
            if Balance.consume b ~queue:q.Fifo.idx ~bytes:(Packet.size pkt) ~next then
              Sched.set_paused t.sched q true
          | _ -> ()
        end;
        Packet.set_sent_at pkt (Bfc_engine.Sim.now t.sim);
        Port.send t.port pkt;
        if Sched.n_active t.sched > 0 then Port.ensure_wakeup t.port;
        t.on_dequeue q.Fifo.idx
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Pause watchdog: like the switch's, a queue paused by a ctrl frame for
   longer than the timeout is force-resumed (the Resume was presumably
   lost). Credit-gated pauses (lossless-BFC) are excluded: there is no
   Resume to lose, the gate opens on Hop_credit arrival. *)

let credit_starved t queue =
  match t.credit with
  | Some b when queue > 0 ->
    let q = t.queues.(queue) in
    (not (Fifo.is_empty q)) && Balance.get b ~queue < Fifo.head_size q
  | _ -> false

let wd_fire t queue epoch =
  if t.wd_epoch.(queue) = epoch && t.ctrl_paused.(queue) then begin
    t.watchdog_fires <- t.watchdog_fires + 1;
    t.wd_epoch.(queue) <- t.wd_epoch.(queue) + 1;
    t.ctrl_paused.(queue) <- false;
    pause_changed t ~queue false;
    if not (credit_starved t queue) then begin
      Sched.set_paused t.sched t.queues.(queue) false;
      try_send t
    end
  end

let pfc_wd_fire t epoch =
  if t.pfc_epoch = epoch && t.pfc_paused then begin
    t.watchdog_fires <- t.watchdog_fires + 1;
    t.pfc_epoch <- t.pfc_epoch + 1;
    t.pfc_paused <- false;
    pause_changed t ~queue:(-1) false;
    try_send t
  end

(* Typed watchdog dispatch ([cls_nic_ctrl]): [a1] packs
   (epoch << 12) | (queue + 1), queue slot 0 = the uplink PFC watchdog,
   so a NIC has at most 4095 queues. One per-sim registry of NICs, one
   shared executor. *)

type reg = { mutable narr : t array; mutable nn : int }

type Bfc_engine.Sim.user += Nic_reg of reg

let watchdog_exec st a0 a1 =
  match st with
  | Nic_reg r ->
    let t = Array.unsafe_get r.narr a0 in
    let epoch = a1 lsr 12 in
    let q1 = a1 land 0xfff in
    if q1 = 0 then pfc_wd_fire t epoch else wd_fire t (q1 - 1) epoch
  | _ -> invalid_arg "Nic.watchdog_exec: foreign class state"

let registry sim =
  match Bfc_engine.Sim.class_state sim ~cls:Bfc_engine.Sim.cls_nic_ctrl with
  | Some (Nic_reg r) -> r
  | _ ->
    let r = { narr = [||]; nn = 0 } in
    Bfc_engine.Sim.register_class sim ~cls:Bfc_engine.Sim.cls_nic_ctrl ~state:(Nic_reg r)
      ~exec:watchdog_exec;
    r

let create ~sim ~node ~port ~n_queues ~policy ~respect_pause ?pause_watchdog ?credit () =
  if n_queues < 2 then invalid_arg "Nic.create: need >= 2 queues";
  if n_queues > 4095 then invalid_arg "Nic.create: more than 4095 queues";
  let r = registry sim in
  let pool = Port.pool sim in
  let queues = Array.init n_queues (fun idx -> Fifo.create ~pool ~idx ~cls:0) in
  let quantum = 1100 + Packet.header_bytes in
  let t =
    {
      sim;
      node;
      idx = r.nn;
      port;
      queues;
      sched = Sched.create policy ~queues ~classes:1 ~quantum;
      respect_pause;
      pfc_paused = false;
      occupants = Array.make n_queues 0;
      rr = 1;
      on_dequeue = ignore;
      backlog = 0;
      credit = Option.map (fun initial -> Balance.create ~queues:n_queues ~initial) credit;
      pause_watchdog;
      ctrl_paused = Array.make n_queues false;
      wd_epoch = Array.make n_queues 0;
      pfc_epoch = 0;
      watchdog_fires = 0;
      on_pause = (fun ~queue:_ ~paused:_ -> ());
    }
  in
  if r.nn = Array.length r.narr then begin
    let ncap = Int.max 16 (2 * r.nn) in
    let na = Array.make ncap t in
    Array.blit r.narr 0 na 0 r.nn;
    r.narr <- na
  end;
  r.narr.(r.nn) <- t;
  r.nn <- r.nn + 1;
  Port.set_on_idle port (fun () -> try_send t);
  t

let arm_queue_watchdog t queue =
  match t.pause_watchdog with
  | None -> ()
  | Some timeout ->
    Bfc_engine.Sim.post t.sim
      (Bfc_engine.Sim.now t.sim + timeout)
      ~cls:Bfc_engine.Sim.cls_nic_ctrl ~a0:t.idx
      ~a1:((t.wd_epoch.(queue) lsl 12) lor (queue + 1))

(* Apply a ctrl-frame pause/resume; every pause assertion (including bitmap
   refreshes) re-arms the watchdog deadline. The setter for
   [Dataplane.apply_ctrl]: a NIC has one port. *)
let set_ctrl_paused t ~port:_ ~queue paused =
  t.wd_epoch.(queue) <- t.wd_epoch.(queue) + 1;
  if t.ctrl_paused.(queue) <> paused then pause_changed t ~queue paused;
  t.ctrl_paused.(queue) <- paused;
  Sched.set_paused t.sched t.queues.(queue) paused;
  if paused then arm_queue_watchdog t queue else try_send t

let arm_pfc_watchdog t =
  match t.pause_watchdog with
  | None -> ()
  | Some timeout ->
    Bfc_engine.Sim.post t.sim
      (Bfc_engine.Sim.now t.sim + timeout)
      ~cls:Bfc_engine.Sim.cls_nic_ctrl ~a0:t.idx ~a1:(t.pfc_epoch lsl 12)

let watchdog_fires t = t.watchdog_fires

(* First unoccupied data queue from [i] on, wrapping past queue 0, or -1. *)
let rec scan_free occupants i remaining =
  if remaining = 0 then -1
  else begin
    let i = if i >= Array.length occupants then 1 else i in
    if occupants.(i) = 0 then i else scan_free occupants (i + 1) (remaining - 1)
  end

let alloc_queue t =
  let n = Array.length t.queues in
  let q = scan_free t.occupants t.rr (n - 1) in
  (* all occupied: share round-robin *)
  let q = if q >= 0 then q else 1 + ((t.rr - 1) mod (n - 1)) in
  t.rr <- (if q + 1 >= n then 1 else q + 1);
  t.occupants.(q) <- t.occupants.(q) + 1;
  q

let release_queue t q =
  if q >= 1 && q < Array.length t.queues then t.occupants.(q) <- Int.max 0 (t.occupants.(q) - 1)

let submit t ~queue pkt =
  let q = t.queues.(queue) in
  Sched.push t.sched q pkt;
  t.backlog <- t.backlog + Packet.size pkt;
  (* credit gating: a starved queue stays paused until replenished *)
  (match t.credit with
  | Some b when queue > 0 && Packet.kind pkt = Packet.Data ->
    let next = Fifo.head_size q in
    if next > 0 && Balance.get b ~queue < next then Sched.set_paused t.sched q true
  | _ -> ());
  try_send t

let submit_ctrl t pkt = submit t ~queue:0 pkt

let queue_bytes t ~queue = t.queues.(queue).Fifo.bytes

let queue_paused t ~queue = t.queues.(queue).Fifo.paused

(* Telemetry gauge: currently paused queues (including credit-gated ones;
   the PFC-paused uplink counts as one more). Sample-tick cost only. *)
let paused_queues t =
  let n = ref (if t.pfc_paused then 1 else 0) in
  Array.iter (fun q -> if q.Fifo.paused then incr n) t.queues;
  !n

let backlog t = t.backlog

let set_on_dequeue t f = t.on_dequeue <- f

let set_on_pause t f = t.on_pause <- f

let on_pause t = t.on_pause

let on_ctrl t pkt =
  match Packet.kind pkt with
  | Packet.Pfc ->
    let pause = Packet.ctrl_b pkt = 1 in
    if t.pfc_paused && not pause then begin
      t.pfc_epoch <- t.pfc_epoch + 1;
      t.pfc_paused <- false;
      pause_changed t ~queue:(-1) false;
      try_send t
    end
    else if pause then begin
      t.pfc_epoch <- t.pfc_epoch + 1;
      if not t.pfc_paused then pause_changed t ~queue:(-1) true;
      t.pfc_paused <- true;
      arm_pfc_watchdog t
    end
  | Packet.Pause | Packet.Resume | Packet.Pause_bitmap ->
    if t.respect_pause then
      Bfc_core.Dataplane.apply_ctrl ~set_paused:set_ctrl_paused t ~pool:(Port.pool t.sim) ~port:0
        ~n_queues:(Array.length t.queues) pkt
  | Packet.Hop_credit -> (
    match t.credit with
    | Some b ->
      let queue = Packet.ctrl_a pkt in
      if queue > 0 && queue < Array.length t.queues then begin
        let q = t.queues.(queue) in
        let next = Fifo.head_size q in
        if Balance.replenish b ~queue ~bytes:(Packet.ctrl_b pkt) ~next then begin
          Sched.set_paused t.sched q false;
          try_send t
        end
      end
    | None -> ())
  | _ -> ()
