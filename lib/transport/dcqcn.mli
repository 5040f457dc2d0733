(** DCQCN sender state (Zhu et al., SIGCOMM 2015).

    Rate-based: the receiver emits CNPs (at most one per [cnp_interval]) on
    ECN-marked arrivals; the sender cuts Rc multiplicatively by alpha/2 and
    recovers through fast-recovery / additive / hyper increase stages driven
    by a timer and a byte counter. Timers run on the simulation clock; call
    [stop] when the flow completes.

    The settings are the DCQCN paper's: a 40 Mb/s additive step, alpha
    gain 1/256, 55 us alpha and increase timers, a 10 MB byte counter and
    5 fast-recovery stages. *)

(** Minimum spacing of a receiver's CNPs (50 us). *)
val cnp_interval : Bfc_engine.Time.t

type t

(** [create sim ~line_gbps] — starts at line rate. *)
val create : Bfc_engine.Sim.t -> line_gbps:float -> t

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
