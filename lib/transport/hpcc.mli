(** HPCC sender state (Li et al., SIGCOMM 2019).

    Window-based control driven by per-hop INT telemetry echoed in ACKs:
    the sender estimates the most-utilized link's inflight ratio U and sets
    W = W_c / (U / eta) + W_AI multiplicatively (at most once per RTT via
    the reference window W_c), with up to 5 additive steps in between.
    W_AI is 80 bytes. *)

type t

val create : eta:float -> bdp:int -> base_rtt:Bfc_engine.Time.t -> t

(** [on_ack t ~hops ~nhops ~ack_seq ~snd_nxt] — [hops] is the INT stack
    echoed in the ACK; only the first [nhops] records are valid (the
    packet's count, see {!Bfc_net.Packet.Pool.int_hop_count}). *)
val on_ack :
  t -> hops:Bfc_net.Packet.int_hop array -> nhops:int -> ack_seq:int -> snd_nxt:int -> unit

val window : t -> int

(** Most recent utilization estimate (diagnostics). *)
(* observation: tests read the measured utilization; bfc-lint: allow DC001 *)
val last_u : t -> float
