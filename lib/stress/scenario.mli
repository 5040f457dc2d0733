(** Seeded, replayable fault schedules.

    A scenario is a named list of timed actions composed on top of
    {!Bfc_fault.Injector}: link flaps, switch reboots, loss bursts, and
    incast bursts. Scenarios carry no hidden state — any
    randomness (the random-storm generator, per-burst loss coins) is
    derived from seeds stored {e inside} the actions, so replaying the
    same scenario on the same environment is byte-identical. {!to_string}
    renders the full schedule canonically; two scenarios with equal
    strings behave identically.

    Links are named relative to the topology and resolved against the
    environment at {!apply} time: [core = i] is the i-th switch-to-switch
    directed port (sorted by gid, modulo the count). *)

type action =
  | Flap of {
      at : Bfc_engine.Time.t;
      core : int;
      down_for : Bfc_engine.Time.t;
      period : Bfc_engine.Time.t;
      count : int;
    }
  | Reboot of {
      at : Bfc_engine.Time.t;
      switch : int;  (** index into [Runner.switches] (node-id order) *)
      down_for : Bfc_engine.Time.t option;
    }
  | Loss_burst of {
      at : Bfc_engine.Time.t;
      dur : Bfc_engine.Time.t;
      p : float;  (** loss probability of each Resume and PFC-resume frame *)
      lseed : int;  (** seeds the loss model's coins *)
    }
  | Incast of {
      at : Bfc_engine.Time.t;
      degree : int;
      agg : int;  (** aggregate bytes, split evenly over senders *)
      iseed : int;  (** seeds sender/receiver choice *)
    }

type t = { sc_name : string; sc_actions : action list }

(** {2 Canned scenarios} — the matrix columns. *)

val clean : t

(** One loss burst that eats Resume/PFC-resume frames: pauses get stuck
    and only the pause watchdog can recover them. *)
val resume_loss : ?at:Bfc_engine.Time.t -> ?dur:Bfc_engine.Time.t -> ?p:float -> unit -> t

(** Repeated down/up cycles on two core links. *)
val flap_storm : ?at:Bfc_engine.Time.t -> ?count:int -> unit -> t

(** Crash-restart of one switch mid-trace, links down for the restart
    window. *)
val reboot : ?at:Bfc_engine.Time.t -> ?down_for:Bfc_engine.Time.t -> ?switch:int -> unit -> t

(** A deterministic random storm: flaps, loss bursts and an extra incast
    drawn from [seed] within [horizon]. Equal seeds give equal storms. *)
val random_storm : seed:int -> horizon:Bfc_engine.Time.t -> t

(** {2 Execution} *)

(** Schedule every action against the environment. Incast actions build
    their flows now (deterministically) and inject them; the flows are
    returned so callers can fold them into completion accounting.
    [id_base] keeps their flow ids clear of the workload's (default
    1_000_000). *)
val apply :
  t -> env:Bfc_sim.Runner.env -> inj:Bfc_fault.Injector.t -> ?id_base:int -> unit ->
  Bfc_net.Flow.t list

(** Canonical rendering of the schedule — the replay fixture format. *)
val to_string : t -> string
