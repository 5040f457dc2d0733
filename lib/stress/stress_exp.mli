(** The adversity matrix: scheme × fault scenario × workload.

    Each cell is one fully independent run (its own [Sim.t]/[Runner.env],
    one {!Bfc_sim.Pool.run} task), with a fault {!Scenario}
    applied through {!Bfc_fault.Injector} and the {!Detect} monitors
    attached. Two legs:

    - {b Clos leg}: the standard Clos incast+background workload under
      clean / resume-loss / flap-storm / reboot / random-storm scenarios,
      for BFC and the PFC strawman. Clos shortest-path routing is
      statically deadlock-free, so any deadlock (or, for BFC, any storm)
      flagged here is a detector regression — CI enforces that.

    - {b Ring leg}: the crafted cyclic-buffer-dependency scenario of
      App. B — sustained cyclic flows on a 5-switch ring. PFC wedges (the
      runtime detector must fire, cross-checked against the static
      analysis); BFC without the elision filter wedges too; BFC with the
      filter completes silently.

    The resulting table is the EXPERIMENTS.md "BFC vs PFC under adversity"
    section; {!target} packages it for {!Bfc_sim.Experiments.run}
    (the stress library sits above [bfc_fault], so the target is driven
    from the CLI rather than registered in [Experiments.all]). *)

type cell = {
  c_scheme : string;
  c_scenario : string;
  c_injected : int;
  c_completed : int;
  c_drops : int;
  c_watchdog : int;  (** watchdog force-resumes, switches + NICs *)
  (* the stress suite checks that no cell has one; bfc-lint: allow DC002 *)
  c_stale : int;  (** packets the hosts dropped as stale ({!Bfc_sim.Runner.stale_packets}) *)
  c_report : Detect.report;
  c_t_done : Bfc_engine.Time.t;  (** latest completion time, 0 if none *)
}

(** One Clos cell. [watchdog] arms the pause watchdog on every device
    (lost-Resume / dead-switch recovery); nonpositive disables it.
    [seed] drives the workload. *)
val clos_cell :
  Bfc_sim.Exp_common.profile ->
  scheme:Bfc_sim.Scheme.t ->
  scenario:Scenario.t ->
  watchdog:Bfc_engine.Time.t ->
  seed:int ->
  cell

type ring_variant = Ring_pfc | Ring_bfc_unprotected | Ring_bfc_filtered

(** One crafted-CBD ring cell. No watchdog — the pure deadlock regime. *)
val ring_cell : Bfc_sim.Exp_common.profile -> ring_variant -> cell

(** The full matrix as an {!Bfc_sim.Experiments.target} named "stress",
    runnable via [Experiments.run]. *)
val target : ?seed:int -> ?watchdog:Bfc_engine.Time.t -> unit -> Bfc_sim.Experiments.target

(** The tables in canonical pipe-separated form: each title, then its
    header and rows with cells joined by [|]. [bfc_sim stress
    --summary-out] writes it; same seed, same bytes. *)
val summary : Bfc_sim.Exp_common.table list -> string
