(** The host NIC: the first "upstream device" of the network.

    Mirrors a switch egress: an array of FIFO queues, a scheduler
    (DRR / SRF / strict priority), per-queue pause (BFC's backpressure
    reaches down to the NIC), and PFC pause of the whole uplink. On the
    wire, data packets carry the NIC queue index in [upstreamQ] so the ToR
    can pause precisely (§3.3.2).

    Queue 0 is reserved for end-to-end control (ACKs, NACKs, grants,
    credits) — highest priority under strict-priority scheduling; data
    queues are [1, n). *)

type t

(** [node] is the host's node id, the [node] of the NIC's tap events.

    [credit] enables the lossless-BFC variant: data queues are gated by
    hop credits returned by the ToR ([Hop_credit] packets), starting from
    the given per-queue byte balance.

    [pause_watchdog] force-resumes a queue (or the PFC-paused uplink)
    paused by a ctrl frame for longer than the timeout, on the assumption
    that the Resume was lost; every pause assertion re-arms the deadline.
    Credit-gated pauses are exempt (they open on [Hop_credit] arrival, no
    Resume is expected).

    Raises [Invalid_argument] for fewer than 2 or more than 4095 queues
    (the watchdog event packs the queue into 12 bits). *)
val create :
  sim:Bfc_engine.Sim.t ->
  node:int ->
  port:Bfc_net.Port.t ->
  n_queues:int ->
  policy:Bfc_switch.Sched.policy ->
  respect_pause:bool ->
  ?pause_watchdog:Bfc_engine.Time.t ->
  ?credit:int ->
  unit ->
  t

val n_queues : t -> int

(** Allocate a data queue for a flow: an unoccupied queue if one exists
    (dynamic assignment, like the switch), else round-robin sharing. *)
val alloc_queue : t -> int

val release_queue : t -> int -> unit

(** Enqueue a packet on a specific queue and kick the transmitter. *)
val submit : t -> queue:int -> Bfc_net.Packet.t -> unit

(** Enqueue on the reserved control queue. *)
val submit_ctrl : t -> Bfc_net.Packet.t -> unit

val queue_bytes : t -> queue:int -> int

val queue_paused : t -> queue:int -> bool

(** Total bytes queued in the NIC. *)
val backlog : t -> int

(** Handle Pause / Resume / Pause-bitmap / PFC addressed to this NIC. *)
val on_ctrl : t -> Bfc_net.Packet.t -> unit

(** [set_on_dequeue t f] — [f queue] runs after each packet leaves the NIC
    (drives window/line-rate refill). *)
val set_on_dequeue : t -> (int -> unit) -> unit

(** [f ~queue ~paused] runs on every {e ctrl-frame} pause-state
    transition of a data queue ([queue = -1] for PFC pause of the whole
    uplink), including watchdog force-resumes, just before the sim's tap
    reports [Nic_pause] for it. Credit-gate openings/closings (the
    lossless variant) are not reported — no Pause/Resume is exchanged for
    them. Observers use the tap; this second tap is kept only for the
    benchmark harness's traced run. *)
val set_on_pause : t -> (queue:int -> paused:bool -> unit) -> unit

(** The currently installed second pause tap (a no-op if none was set). *)
val on_pause : t -> (queue:int -> paused:bool -> unit)

(** Currently paused queues (credit-gated included; a PFC-paused uplink
    adds one). Walks the queue array — a sample-tick gauge, not a
    per-packet probe. *)
val paused_queues : t -> int

(** Times the pause watchdog force-resumed a queue or the uplink. *)
val watchdog_fires : t -> int
