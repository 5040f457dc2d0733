(** End hosts: transmit state machines for every scheme, the Go-Back-N /
    reassembly receive path, ACK/NACK/CNP/grant/credit generation, and the
    NIC glue.

    One [Host.t] is attached per host node; the experiment runner starts
    flows with {!start_flow} and is notified of completions (measured at the
    receiver when the last byte arrives, per §6.2.1). *)

type scheme =
  | Bfc of { window_cap : int option; delay_cc : bool }
      (** pure BFC sends at line rate gated only by NIC-queue pauses;
          [window_cap] = Some bdp is the incremental-deployment cap
          (App. A.8); [delay_cc] enables App. A.1's Algorithm 1 *)
  | Dctcp of { slow_start : bool }
  | Dcqcn of Dcqcn.params
  | Hpcc of { eta : float; max_stage : int; perfect_rtx : bool }
  | Swift of { target_mult : float; beta : float }
      (** delay-target window control (Kumar et al., SIGCOMM 2020) *)
  | Timely  (** RTT-gradient rate control (Mittal et al., SIGCOMM 2015) *)
  | Xpass of { target_loss : float; w_init : float; w_max : float }
  | Homa of Homa.params

type config = {
  scheme : scheme;
  mtu : int; (** payload bytes per packet *)
  extra_header : int; (** per-data-packet overhead (HPCC INT: 80 B) *)
  nic_queues : int;
  nic_policy : Bfc_switch.Sched.policy;
  respect_pause : bool; (** false = the BFC−NIC variant of App. A.8 *)
  srf : bool; (** stamp remaining size into packets (BFC-SRF) *)
  rto : Bfc_engine.Time.t;
  base_rtt : Bfc_engine.Time.t;
  bdp : int; (** bytes; the network-wide default *)
  line_gbps : float;
  flow_bdp : (Bfc_net.Flow.t -> int) option;
      (** per-flow BDP for window initialisation (cross-DC paths have a much
          larger BDP than intra-DC ones, App. A.9) *)
  nic_credit : int option; (** lossless-BFC: initial per-queue credit *)
  pause_watchdog : Bfc_engine.Time.t option;
      (** force-resume a ctrl-paused NIC queue after this long (see
          {!Nic.create}) *)
  seed : int;
}

val default_config : config

type t

(** [create ~sim ~node ~port ~config] attaches a host device to [node]
    ([port] is its uplink). Data, ack and control packets are drawn from
    (and consumed packets returned to) the sim's packet table
    ({!Bfc_net.Port.pool}). *)
val create :
  sim:Bfc_engine.Sim.t ->
  node:Bfc_net.Node.t ->
  port:Bfc_net.Port.t ->
  config:config ->
  unit ->
  t

val nic : t -> Nic.t

val config : t -> config

(** Register the completion callback (fires at the receiving host when the
    flow's last byte arrives). Replaces any previous callback. *)
val on_complete : t -> (Bfc_net.Flow.t -> unit) -> unit

(** Add a completion observer without displacing the existing ones (the
    new observer runs after them). Streaming runs add sketch updates and
    flow-trace writes after the driver's completion counter this way. *)
val add_on_complete : t -> (Bfc_net.Flow.t -> unit) -> unit

(** Forget all per-flow sender/receiver state for [flow_id] on this host.
    Safe once the flow is complete and its last control packets have
    drained (packets for unknown flow ids are ignored); lets long streaming
    runs keep per-flow memory proportional to in-flight flows only. *)
val reclaim_flow_state : t -> flow_id:int -> unit

(** [reclaim_after t ~peer ~flow_id ~delay] reclaims [flow_id]'s state on
    [t] and then on [peer] [delay] from now, as one typed event
    ({!Bfc_engine.Sim.cls_flow_reclaim}). Both hosts must be on one sim. *)
val reclaim_after : t -> peer:t -> flow_id:int -> delay:Bfc_engine.Time.t -> unit

(** Per-flow records built so far, (sender, receiver): reclaimed flows'
    records are reused unless still reachable (an unfinished sender, a
    receiver with a live credit ticker). *)
val flow_records : t -> int * int

(** Begin transmitting a flow whose [src] is this host. *)
val start_flow : t -> Bfc_net.Flow.t -> unit

(** Perfect-retransmission notice (HPCC-PFC, §6.2.1): the switch tells the
    sender exactly which bytes were dropped. *)
val on_drop_notice : t -> flow_id:int -> seq:int -> len:int -> unit

(** Bytes of payload this host has injected (diagnostics). *)
val bytes_sent : t -> int

(** Retransmitted payload bytes (diagnostics; reordering/drops). *)
val bytes_retransmitted : t -> int

(** Times this host's NIC pause watchdog fired (see {!Nic.watchdog_fires}). *)
val watchdog_fires : t -> int
