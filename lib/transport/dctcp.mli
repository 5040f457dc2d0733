(** DCTCP sender state (Alizadeh et al., SIGCOMM 2010).

    Window-based; the receiver echoes ECN marks per packet and the sender
    maintains the EWMA marked fraction alpha, cutting by alpha/2 once per
    window. Per §6.2.1 flows start at line rate (window = 1 BDP); the
    slow-start variant of App. A.6 starts at 10 packets and doubles. *)

type t

val create : mtu:int -> bdp:int -> slow_start:bool -> g:float -> t

(** [on_ack t ~acked ~marked ~snd_una ~snd_nxt] — [acked] bytes newly
    cumulatively acknowledged; [marked] is the ECN echo. *)
val on_ack : t -> acked:int -> marked:bool -> snd_una:int -> snd_nxt:int -> unit

(** On retransmission timeout: collapse the window. *)
val on_timeout : t -> unit

(** Current window in bytes (>= 1 MTU). *)
val window : t -> int

(** Current alpha (for tests). *)
(* observation: tests read the sender's alpha; bfc-lint: allow DC001 *)
val alpha : t -> float
