(** Swift (Kumar et al., SIGCOMM 2020) — simplified sender state.

    Delay-based, window-controlled: per ACK, compare the RTT sample to a
    target delay (1.5 x base RTT); additively increase below target,
    multiplicatively decrease (at most once per RTT, by 0.8 of the
    relative overshoot) above it. One of the "deployed algorithms" the
    paper's §2 motivates against. *)

type t

val create : mtu:int -> bdp:int -> base_rtt:Bfc_engine.Time.t -> t

val on_ack : t -> rtt:Bfc_engine.Time.t -> now:Bfc_engine.Time.t -> unit

val window : t -> int
