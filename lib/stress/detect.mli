(** Mechanical detectors for lossless-fabric pathologies (§2 of the paper).

    Attach to a {!Bfc_sim.Runner.env} after setup and before flows are
    injected (the [sp_obs] slot of {!Bfc_sim.Exp_common.std_setup}). The
    monitor follows switch queues and pause transitions and NIC pauses on
    the sim's {!Bfc_engine.Tap}, and samples pause state on a 5 us tick.
    Three detectors run:

    - {b Pause storms}: the fraction of time each port spent {e port-level}
      paused (PFC pause of a switch egress or of a host NIC uplink) over a
      sliding window of 10 ticks. A port whose pause fraction sustains at
      or above 0.5 is "in storm"; we record onset, duration and peak
      fraction per storm, plus the blast radius (max ports simultaneously
      in storm). BFC pauses individual queues, never whole ports, so a BFC
      fabric is storm-silent by construction — exactly the paper's claim.

    - {b Runtime deadlock}: each tick, the currently-paused egress ports
      (any queue paused, or PFC-paused) induce a subgraph of the static
      backpressure graph ({!Bfc_core.Deadlock.build}); a cycle that holds
      for 3 consecutive ticks with no packet transmitted by
      any port on it is a deadlock incident. Each incident is cross-checked
      against the static analysis: [dl_static_dangerous] says whether every
      edge of the witness cycle was statically classified dangerous.

    - {b Victim flows}: a completed flow whose slowdown is at least 4,
      and which traversed a (port, queue) that was paused for a long
      stretch of the flow's lifetime while the flow's own footprint in
      that queue stayed small (at most 32 KiB) — slowdown caused by pauses
      on queues the flow never congested (head-of-line victims). The pause
      overlap must be at least 5 us and cover at least 0.3 of the flow's
      FCT, so the pause {e explains} the slowdown and flows slowed by
      retransmission timeouts alone are not misattributed. Incast
      congestor flows are excluded. *)

type storm = {
  st_gid : int;  (** global port id *)
  (* the observers fixture renders every storm; bfc-lint: allow DC002 *)
  st_onset : Bfc_engine.Time.t;
  (* the observers fixture renders every storm; bfc-lint: allow DC002 *)
  st_duration : Bfc_engine.Time.t;
  (* the observers fixture renders every storm; bfc-lint: allow DC002 *)
  st_peak_frac : float;
}

type deadlock_incident = {
  dl_at : Bfc_engine.Time.t;
  dl_cycle : int list;  (** witness cycle of egress-port gids *)
  dl_static_dangerous : bool;
      (** every cycle edge was in the static dangerous set *)
}

type victim = {
  (* the observers fixture renders every victim; bfc-lint: allow DC002 *)
  v_flow : int;
  v_slowdown : float;
  (* the observers fixture renders every victim; bfc-lint: allow DC002 *)
  v_gid : int;  (** the paused port the flow was innocently stuck behind *)
  (* the observers fixture renders every victim; bfc-lint: allow DC002 *)
  v_queue : int;
  (* the observers fixture renders every victim; bfc-lint: allow DC002 *)
  v_pause_ns : int;  (** pause overlap with the flow's transit *)
}

type report = {
  r_storms : storm list;
  r_storm_ports : int;  (** distinct ports that stormed *)
  r_max_blast : int;  (** max ports simultaneously in storm *)
  r_deadlocks : deadlock_incident list;
  r_victims : victim list;
}

type t

(** Install the monitor: registers on the tap and starts the sample
    ticker. Call once per environment, before injecting. *)
val attach : Bfc_sim.Runner.env -> t

(** Finalize and collect. Open pause spans and storms are closed at the
    current sim time; victims are classified over the given flows (in list
    order, so output is deterministic). *)
val report : t -> flows:Bfc_net.Flow.t list -> report

(** Canonical one-line digest, integer fields only — byte-stable across
    replays of the same seed, used by the regression fixtures. *)
val summary : report -> string

(** p99 of victim slowdowns (0 when no victims). *)
val victim_p99 : report -> float
