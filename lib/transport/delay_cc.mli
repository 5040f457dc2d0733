(** The simple delay-based end-to-end control of App. A.1 (Algorithm 1),
    used by the BFC+CC variant.

    The window starts at one BDP and is nudged per ACK so that, over an
    RTT, w -> w x (RTT_target / RTT); the target is a deliberately loose
    2.5 x base RTT since BFC itself handles queueing and fairness. *)

type t

val create : mtu:int -> bdp:int -> base_rtt:Bfc_engine.Time.t -> t

(** [on_ack t ~rtt] — one acknowledgement carrying an RTT sample. *)
val on_ack : t -> rtt:Bfc_engine.Time.t -> unit

val window : t -> int
