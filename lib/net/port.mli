(** A directed egress port: one end of a link plus its transmitter.

    The owning device drives the port: it may [send] only when the port is
    idle. The transmitter is clock-based: [send] records when serialization
    finishes and schedules no completion event. A device that finds the
    port [busy] and still has work queued calls [ensure_wakeup], which arms
    one reusable handle to fire [on_idle] the moment the transmitter frees
    up — ports that go idle with nothing queued cost no event at all.
    Delivery at the peer happens one propagation delay after serialization
    finishes (store-and-forward).

    Control packets ([send_ctrl]) model the dedicated high-priority control
    queue of the paper: they are delivered after the propagation delay
    without occupying the data transmitter (their bandwidth is negligible:
    64 B at 100 Gbps is 5 ns).

    A packet in flight is named by its index in the sim's packet table
    ({!pool}), which its delivery event carries. Sending hands the packet
    over: the sender must not touch it afterwards, since a fault drop
    returns it to the table at once. *)

type t

(** The simulation's packet table: one per sim, shared by every port,
    switch and host on it (created on first use). *)
val pool : Bfc_engine.Sim.t -> Packet.Pool.t

(** The simulation's flow table, beside its packet table: one per sim,
    created on first use. *)
val flows : Bfc_engine.Sim.t -> Flow.Table.t

val create :
  sim:Bfc_engine.Sim.t ->
  gid:int ->
  gbps:float ->
  prop:Bfc_engine.Time.t ->
  peer:Node.t ->
  peer_port:int ->
  t

(** Global port id (unique across the topology), used by metrics and INT. *)
val gid : t -> int

val gbps : t -> float

val prop : t -> Bfc_engine.Time.t

val peer : t -> Node.t

val peer_port : t -> int

val busy : t -> bool

(** Cumulative bytes serialized on this port (data path only). *)
val tx_bytes : t -> int

(** Cumulative packets serialized on this port (data path only). *)
val tx_packets : t -> int

(** [f pkt] runs at the start of every data-path serialization (after
    the busy check, before fault injection), just before the sim's tap
    reports [Port_tx]. Observers use the tap; this second tap is kept
    only for the benchmark harness's traced run. *)
val set_on_tx : t -> (Packet.t -> unit) -> unit

(** Raised by [send] when the transmitter is already serializing a packet —
    a device scheduling bug. Carries the global port id and the simulation
    time at which the violation happened. *)
exception Busy of { gid : int; now : Bfc_engine.Time.t }

(** [send t pkt] starts serializing [pkt]. Raises {!Busy} if the port is
    busy. *)
val send : t -> Packet.t -> unit

(** Deliver a control packet after the propagation delay, bypassing the
    transmitter. *)
val send_ctrl : t -> Packet.t -> unit

(** The device's "transmitter idle" callback; fired when an [ensure_wakeup]
    request matures. *)
val set_on_idle : t -> (unit -> unit) -> unit

(** Arm the idle wakeup: if the transmitter is busy, [on_idle] fires exactly
    when it frees up (no-op if already armed, or if the port is idle now).
    Devices call this instead of polling — once per stretch of busy time,
    not once per packet. *)
val ensure_wakeup : t -> unit

(** Fault injection: packets for which the predicate returns true are
    silently lost on the wire (fiber corruption, §3.3 "Idempotent state";
    the periodic pause bitmap exists to survive exactly this) and go back
    to the packet table. *)
val set_fault : t -> (Packet.t -> bool) -> unit

(** Packets lost to injected faults so far. *)
val faults_injected : t -> int

(** One-hop RTT to the peer: 2 x propagation (switch pipeline latency is
    folded into the propagation figure, as in the paper's simulations). *)
val hop_rtt : t -> Bfc_engine.Time.t
