(** The switch: routing, shared buffer, per-port queue arrays, scheduler,
    ECN, PFC, INT, and the dataplane program's hooks.

    The switch is deliberately "programmable": protocol-specific dataplane
    behaviour (BFC's flow table and pause counters, Ideal-FQ's per-flow
    queues, Homa's priority mapping) attaches through [hooks], mirroring how
    BFC is a P4 program over a fixed switch architecture (§3.1). Observers
    do not use the hooks: the switch reports enqueues, dequeues, drops,
    pause transitions, watchdog fires, reboots and control-frame arrivals
    on the sim's {!Bfc_engine.Tap}. *)

(** RED-style marking between [kmin] and [kmax] queue bytes, with
    probability 1 at [kmax]. *)
type ecn_config = { kmin : int; kmax : int }

type config = {
  queues_per_port : int;
  classes : int; (** traffic classes; queues are evenly partitioned *)
  policy : Sched.policy;
  buffer_bytes : int;
      (** [max_int] = infinite (Ideal-FQ); admission is the
          dynamic-threshold rule with alpha 1 ({!Buffer}) *)
  ecn : ecn_config option;
  pfc : float option;
      (** PFC: pause an ingress when its buffered bytes exceed this
          fraction of the free buffer (HPCC setting: 0.11), and resume it
          below 0.8 of that threshold *)
  int_stamping : bool; (** append HPCC INT telemetry on dequeue *)
  track_active_flows : bool; (** maintain per-egress distinct-flow counts *)
  mtu : int; (** DRR quantum = mtu + header *)
  pause_watchdog : Bfc_engine.Time.t option;
      (** force-resume any queue (or PFC-paused egress) paused longer than
          this; every pause assertion re-arms the deadline. [None] (the
          default) disables the watchdog. *)
}

val default_config : config

type t

(** Routing decision: local egress port for a packet. *)
type route_fn = t -> in_port:int -> Bfc_net.Packet.t -> int

(** The dataplane program: one closed callback set per switch, written
    only by the program modules ([Dataplane], [Credit_dataplane],
    [Xpass_switch]) when they attach. Each tap event of the same name
    fires after its hook. *)
type hooks = {
  mutable classify : t -> in_port:int -> egress:int -> Bfc_net.Packet.t -> int;
      (** queue index at the egress; may update dataplane state *)
  mutable on_enqueue : t -> in_port:int -> egress:int -> queue:int -> Bfc_net.Packet.t -> unit;
  mutable on_dequeue : t -> egress:int -> queue:int -> Bfc_net.Packet.t -> unit;
  mutable on_drop : t -> in_port:int -> egress:int -> queue:int -> Bfc_net.Packet.t -> unit;
  mutable on_ctrl : t -> in_port:int -> Bfc_net.Packet.t -> bool;
      (** BFC pause/resume/bitmap handler; return [true] if consumed *)
  mutable admit : t -> egress:int -> queue:int -> Bfc_net.Packet.t -> bool;
      (** extra admission check ANDed with the buffer model (e.g.
          ExpressPass's 16-credit queue cap) *)
}

(** [create ~sim ~node ~config ~route] attaches a switch device to [node].
    [route] typically wraps {!Bfc_net.Topology.ecmp_port}. Its queues
    hold indices into the sim's packet table ({!Bfc_net.Port.pool}),
    control packets are drawn from it, and consumed or dropped packets go
    back to it. Raises [Invalid_argument] for more than 4096 ports or
    4095 queues per port (the watchdog event packs both into 12 bits). *)
val create :
  sim:Bfc_engine.Sim.t ->
  node:Bfc_net.Node.t ->
  ports:Bfc_net.Port.t array ->
  config:config ->
  route:route_fn ->
  unit ->
  t

val hooks : t -> hooks

val config : t -> config

val node_id : t -> int

val sim : t -> Bfc_engine.Sim.t

(** The sim's packet table. Dataplane programs use it to mint
    pause/credit frames without allocating. *)
val pool : t -> Bfc_net.Packet.Pool.t

val n_ports : t -> int

val port : t -> int -> Bfc_net.Port.t

(** {2 Dataplane services for hooks} *)

(** Queue [queue] of egress [egress]. *)
val queue : t -> egress:int -> queue:int -> Fifo.t

(** Queues of one egress. *)
val queues : t -> egress:int -> Fifo.t array

(** Pause/resume a queue (BFC backpressure reacting side). *)
val set_queue_paused : t -> egress:int -> queue:int -> bool -> unit

(** Number of active queues at an egress (non-empty, not paused):
    the paper's N_active. *)
val n_active : t -> egress:int -> int

(** Bytes queued at an egress (all queues). *)
val egress_bytes : t -> egress:int -> int

(** Send a control packet out of [egress] (towards the device whose
    packets arrive on the paired ingress), bypassing data queues. *)
val send_ctrl : t -> egress:int -> Bfc_net.Packet.t -> unit

(** Largest 1-hop RTT among this switch's ports (used for Th, §3.3.2). *)
val max_hop_rtt : t -> Bfc_engine.Time.t

(** {2 Introspection / metrics} *)

val buffer_used : t -> int

val drops : t -> int

(** Dropped Data packets only (ExpressPass drops credits by design). *)
val data_drops : t -> int

val tx_packets : t -> int

val rx_packets : t -> int

(** Cumulative time (ns) egress [egress] has spent PFC-paused. *)
val pfc_paused_ns : t -> egress:int -> int

(** Is this egress currently PFC-paused? *)
val pfc_paused : t -> egress:int -> bool

(** Distinct flows with >= 1 packet queued at the egress
    (requires [track_active_flows]). *)
val active_flows : t -> egress:int -> int

(** {2 Fault injection} *)

(** Crash-and-restart: every queue is flushed (resident packets are lost
    and counted in {!drops}), buffer accounting, pause state, PFC latches
    and flow tracking are reset. Upstream queues paused on this switch's
    behalf receive no Resume; their own pause watchdogs must recover them.
    Returns the number of packets lost. *)
val reboot : t -> int

(** Number of {!reboot}s so far. *)
val reboots : t -> int

(** Times the pause watchdog force-resumed a queue or egress. *)
val watchdog_fires : t -> int

val queue_paused : t -> egress:int -> queue:int -> bool

(** Number of currently paused queues across all egresses (each PFC-paused
    port counts as one). A telemetry gauge: walks the queue arrays, so call
    it per sample tick, not per packet. *)
val paused_queues : t -> int

(** Sim time at which the queue was last paused, [None] if not paused. *)
val queue_paused_since : t -> egress:int -> queue:int -> Bfc_engine.Time.t option
