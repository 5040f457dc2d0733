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
  | Dcqcn
  | Hpcc of { eta : float; perfect_rtx : bool }
  | Swift  (** delay-target window control (Kumar et al., SIGCOMM 2020) *)
  | Timely  (** RTT-gradient rate control (Mittal et al., SIGCOMM 2015) *)
  | Xpass of { target_loss : float; w_init : float }
      (** ExpressPass credit feedback; the increase weight is capped at 0.5 *)
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
  nic_credit : bool;
      (** lossless-BFC: gate the NIC's data queues by hop credits, each
          starting from {!Bfc_core.Credit_dataplane.credit_bytes} *)
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

(** Add a completion observer (fires at the receiving host when the
    flow's last byte arrives), after the ones already registered.
    The run driver ([Runner.setup]) registers its completion counter first;
    streaming runs add sketch updates and flow-trace writes after it. *)
val add_on_complete : t -> (Bfc_net.Flow.t -> unit) -> unit

(** [reclaim_after t ~flow ~delay] reclaims [flow]'s transport state on
    both of its hosts [delay] from now, as one typed event
    ({!Bfc_engine.Sim.cls_flow_reclaim}), and then hands [flow]'s record
    back to the sim's flow table, which reuses it if it is one of the
    table's own ({!Bfc_net.Flow.Table.release}). [t] is [flow]'s source.
    Late packets and timers of the flow then find no state. *)
val reclaim_after : t -> flow:Bfc_net.Flow.t -> delay:Bfc_engine.Time.t -> unit

(** Sender and receiver records built so far on [t]'s sim. A flow's
    records sit at its slot in the sim's flow table; a reclaimed flow's
    record stays there for the slot's next flow unless it is still
    reachable (an unfinished sender, a receiver with a live credit
    ticker), in which case the next flow gets a fresh one. *)
(* observation: tests count per-flow records; bfc-lint: allow DC001 *)
val flow_records : t -> int * int

(** Begin transmitting a flow whose [src] is this host. A record the
    sim's flow table does not hold yet is added to it as the caller's
    ({!Bfc_net.Flow.Table.add}). *)
val start_flow : t -> Bfc_net.Flow.t -> unit

(** Perfect-retransmission notice (HPCC-PFC, §6.2.1): the switch tells the
    sender exactly which bytes were dropped. [flow] is the dropped
    packet's flow word ({!Bfc_net.Packet.flow}); a notice for a flow
    reclaimed since does nothing. *)
val on_drop_notice : t -> flow:int -> seq:int -> len:int -> unit

(** Bytes of payload this host has injected (diagnostics). *)
val bytes_sent : t -> int

(** Retransmitted payload bytes (diagnostics; reordering/drops). *)
val bytes_retransmitted : t -> int

(** Packets of a flow that arrived after the flow's slot in the flow
    table went to another flow. Each is dropped without touching any
    flow's state. *)
val stale_packets : t -> int

(** Times this host's NIC pause watchdog fired (see {!Nic.watchdog_fires}). *)
val watchdog_fires : t -> int
