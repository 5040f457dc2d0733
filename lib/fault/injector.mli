(** Fault injection over a running experiment.

    Attach after {!Bfc_sim.Runner.setup}. Link state changes are reported
    on the sim's {!Bfc_engine.Tap} ([Link_down] / [Link_up]), so a
    {!Bfc_sim.Tracer} on the same environment records them. The injector
    owns the fault predicate of every port it touches and composes two
    fault sources:

    - a per-directed-link {!Loss} model (probabilistic or deterministic
      packet loss / corruption), and
    - link state: a downed link loses every packet in both directions,
      including control frames, until brought back up.

    Switch reboots flush the victim's buffer (resident packets are lost),
    reset its dataplane program state (flow table, pause counters, DQA) and
    optionally keep its links down for the crash-restart window. Upstream
    queues paused on the dead switch's behalf receive no Resume — the pause
    watchdog ({!Bfc_sim.Runner.params}[.pause_watchdog]) is the recovery
    mechanism, which is exactly what these faults are designed to
    exercise. *)

type t

(** With [?registry], the injector registers fault telemetry: counters
    [fault_link_downs] / [fault_link_ups] / [fault_reboots] /
    [fault_packets_flushed] and gauges [fault_links_down] /
    [fault_packets_lost] (cumulative over managed ports). *)
val attach : ?registry:Bfc_obs.Registry.t -> Bfc_sim.Runner.env -> t

(** {2 Packet loss} *)

(** Share one loss model across every directed port of the topology. *)
val set_loss_everywhere : t -> Loss.t -> unit

(** Remove the loss model from every directed port (ends a loss burst). *)
val clear_loss_everywhere : t -> unit

(** {2 Link state} *)

(** Is the directed port currently down? *)
(* observation: tests read a link's state; bfc-lint: allow DC001 *)
val is_down : t -> gid:int -> bool

(** [flap t ~gid ~start ~down_for ~period ~count] schedules [count]
    down/up cycles of the link carrying directed port [gid], both
    directions: down at [start + i*period] (no-op if it is down already),
    up [down_for] later. Requires [0 < down_for < period]. *)
val flap :
  t ->
  gid:int ->
  start:Bfc_engine.Time.t ->
  down_for:Bfc_engine.Time.t ->
  period:Bfc_engine.Time.t ->
  count:int ->
  unit

(** {2 Switch crash} *)

(** [reboot_switch t ~node ()] drains and restarts the switch at [node]:
    buffer flushed (packets counted as drops), PFC and pause state cleared,
    BFC flow table / pause counters / DQA reset. With [down_for], the
    switch's links also stay down for the crash-restart window so peers see
    the outage. Links that were already down when the reboot hit are left
    to their own fault's timeline: their counters are not bumped again and
    the crash-restart timer does not bring them back early. Returns the
    number of packets lost. *)
val reboot_switch : t -> node:int -> ?down_for:Bfc_engine.Time.t -> unit -> int

(** Packets lost so far on ports this injector manages (loss models and
    downed links combined). *)
val faults_injected : t -> int
