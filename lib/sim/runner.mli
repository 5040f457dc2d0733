(** Wire a scheme onto a topology, inject flows, run, collect.

    [setup] instantiates a switch (with the scheme's dataplane program) on
    every switch node and a host on every host node; [inject] schedules
    flow starts; [run]/[drain] advance the simulation. *)

type params = {
  mtu : int;
  buffer_bytes : int; (** shared buffer per switch (12 MB paper) *)
  ecn_kmin : int; (** 100 KB *)
  ecn_kmax : int; (** 400 KB *)
  pfc_frac : float; (** 0.11 of free buffer *)
  track_active_flows : bool;
  deadlock_filter : bool; (** install the App. B elision table *)
  classes : int; (** traffic classes (Fig. 20) *)
  pause_watchdog : Bfc_engine.Time.t option;
      (** arm the pause watchdog on every switch and host NIC: a queue held
          paused longer than this is force-resumed (lost-Resume recovery).
          [None] (the default) disables it. *)
  seed : int;
  homa_dist : Bfc_workload.Dist.t;
      (** workload distribution used to derive Homa's priority cutoffs; a
          [params] field (not a global) so concurrent sweeps on separate
          domains cannot race on it *)
  streaming : bool;
      (** bounded-memory run: [setup] arms a per-flow reclaim event 4 base
          RTTs after each completion that frees both hosts' transport
          state for the flow, so resident memory tracks flows in flight.
          Packets, pauses and completions are unchanged; only the reclaim
          events are added. *)
}

val default_params : params

type env

val setup : topo:Bfc_net.Topology.t -> scheme:Scheme.t -> params:params -> env

val sim : env -> Bfc_engine.Sim.t

val topo : env -> Bfc_net.Topology.t

val params : env -> params

(** Maximum base RTT between hosts (used for windows and BDP). *)
val base_rtt : env -> Bfc_engine.Time.t

val bdp : env -> int

(** Switches, in node-id order. *)
val switches : env -> Bfc_switch.Switch.t array

(** The switch on node [node]. Raises [Invalid_argument] for a node that
    is not a switch. *)
val switch : env -> int -> Bfc_switch.Switch.t

(** BFC dataplanes (same order as [switches]) when the scheme has one. *)
val dataplanes : env -> Bfc_core.Dataplane.t array

val host : env -> int -> Bfc_transport.Host.t

(** Apply [f] to every host of this environment. *)
val iter_hosts : env -> (Bfc_transport.Host.t -> unit) -> unit

(** Schedule [Host.start_flow] at each flow's arrival time. The sim's
    flow table holds the records for the run and never reuses them,
    streaming runs included. *)
val inject : env -> Bfc_net.Flow.t list -> unit

(** [inject_mtu env ~id ~src ~dst ~at] schedules a single-MTU flow from
    host node [src] to host node [dst] arriving at [at]. The pending event
    holds ints only: the sim's flow table hands out the flow's record when
    it arrives, so none is in use before then. A streaming run gives the
    record back at the flow's reclaim, for the next arrival to reuse. A
    caller posting a batch calls [Sim.reserve] first. Raises
    [Invalid_argument] for a node id outside [0, 2^30). *)
val inject_mtu : env -> id:int -> src:int -> dst:int -> at:Bfc_engine.Time.t -> unit

val injected : env -> int

val completed : env -> int

(** The environment's packet pool (diagnostics: recycle/alloc counters). *)
val pool : env -> Bfc_net.Packet.Pool.t

(** Events executed by this environment's simulator so far (macro
    benchmark denominator). *)
val events_executed : env -> int

(** Run to an absolute simulation time. *)
val run : env -> until:Bfc_engine.Time.t -> unit

(** Keep running in 100 us slices until every injected flow has
    completed or [budget] extra time elapses. *)
val drain : env -> budget:Bfc_engine.Time.t -> unit

(** Packets the hosts dropped as stale ({!Bfc_transport.Host.stale_packets}). *)
val stale_packets : env -> int

(** Total Data-packet drops across switches (credit drops excluded). *)
val total_drops : env -> int

(** Fraction of egress-time spent PFC-paused across all switch ports. *)
val pfc_pause_fraction : env -> float

(** Ideal (store-and-forward, line-rate) FCT for a flow on this topology,
    accounting for the scheme's per-packet header overhead. *)
val ideal_fct : env -> Bfc_net.Flow.t -> Bfc_engine.Time.t

(** FCT slowdown of a completed flow. *)
val slowdown : env -> Bfc_net.Flow.t -> float
