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
  ideal_queues : int; (** queue count standing in for "unbounded" *)
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

val scheme : env -> Scheme.t

val params : env -> params

(** Maximum base RTT between hosts (used for windows and BDP). *)
val base_rtt : env -> Bfc_engine.Time.t

val bdp : env -> int

(** Switches, in node-id order. *)
val switches : env -> Bfc_switch.Switch.t array

(** BFC dataplanes (same order as [switches]) when the scheme has one. *)
val dataplanes : env -> Bfc_core.Dataplane.t array

val host : env -> int -> Bfc_transport.Host.t

(** Apply [f] to every host of this environment. *)
val iter_hosts : env -> (Bfc_transport.Host.t -> unit) -> unit

(** Schedule [Host.start_flow] at each flow's arrival time. *)
val inject : env -> Bfc_net.Flow.t list -> unit

val injected : env -> int

val completed : env -> int

(** The environment's packet pool (diagnostics: recycle/alloc counters). *)
val pool : env -> Bfc_net.Packet.Pool.t

(** Events executed by this environment's simulator so far (macro
    benchmark denominator). *)
val events_executed : env -> int

(** Run to an absolute simulation time. *)
val run : env -> until:Bfc_engine.Time.t -> unit

(** Keep running in [step]-sized slices until every injected flow has
    completed or [budget] extra time elapses. *)
val drain : ?step:Bfc_engine.Time.t -> env -> budget:Bfc_engine.Time.t -> unit

(** Total Data-packet drops across switches (credit drops excluded). *)
val total_drops : env -> int

(** Fraction of egress-time spent PFC-paused across all switch ports. *)
val pfc_pause_fraction : env -> float

(** Ideal (store-and-forward, line-rate) FCT for a flow on this topology,
    accounting for the scheme's per-packet header overhead. *)
val ideal_fct : env -> Bfc_net.Flow.t -> Bfc_engine.Time.t

(** FCT slowdown of a completed flow. *)
val slowdown : env -> Bfc_net.Flow.t -> float
