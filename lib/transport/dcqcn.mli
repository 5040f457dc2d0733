(** DCQCN sender state (Zhu et al., SIGCOMM 2015).

    Rate-based: the receiver emits CNPs (at most one per [cnp_interval]) on
    ECN-marked arrivals; the sender cuts Rc multiplicatively by alpha/2 and
    recovers through fast-recovery / additive / hyper increase stages driven
    by a timer and a byte counter. Timers run on the simulation clock; call
    [stop] when the flow completes. *)

type params = {
  rai_gbps : float; (** additive increase step (paper: 40 Mb/s) *)
  g : float; (** alpha EWMA gain (1/256) *)
  alpha_timer : Bfc_engine.Time.t; (** 55 us *)
  increase_timer : Bfc_engine.Time.t; (** 55 us *)
  byte_counter : int; (** 10 MB *)
  fast_recovery_stages : int; (** F = 5 *)
  cnp_interval : Bfc_engine.Time.t; (** 50 us, receiver side *)
}

val default_params : params

type t

(** [create sim ~params ~line_gbps ~on_rate_change] — starts at line rate.
    [on_rate_change] lets the pacer resynchronize. *)
val create :
  Bfc_engine.Sim.t -> params:params -> line_gbps:float -> on_rate_change:(unit -> unit) -> t

(** Receiver congestion notification arrived. *)
val on_cnp : t -> unit

(** Account transmitted bytes (drives the byte counter). *)
val on_sent : t -> bytes:int -> unit

(** Current sending rate, bytes per ns. *)
val rate : t -> float

(** Cancel timers (flow finished). *)
val stop : t -> unit

(* observation: tests read the sender's alpha; bfc-lint: allow DC001 *)
val alpha : t -> float
