(** Credit-based (lossless) BFC — the §5 extension the paper leaves to
    future work ("Using credits [11,41] could address this at the cost of
    added complexity").

    Queue assignment is BFC's (flow table + dynamic queue assignment), but
    instead of reactive pause/resume, transmission is gated by hop-by-hop
    credits in the style of Kung & Morris: every egress queue holds a byte
    balance for its downstream link; the downstream returns a credit as
    each packet departs its own buffer. A packet is transmitted only when
    the balance covers it, so — provided the downstream reserves
    [credit_bytes] of buffer per ⟨ingress, upstream queue⟩ — no packet
    ever arrives to a full buffer: losslessness by construction, at the
    documented cost of large reserved buffers (this is exactly why the
    paper's main design avoids credits; see §2.3 "ATM schemes require
    per-connection state and large buffers").

    Host-facing egresses are uncredited (receiver NICs always drain).

    Queue assignment uses BFC's defaults: dynamic assignment, 100 table
    slots per queue and a 2-HRTT sticky window. *)

(** Initial credit balance per queue, in bytes (25,000): one 1-hop BDP
    sustains line rate. *)
val credit_bytes : int

type t

val attach : Bfc_switch.Switch.t -> t

(** The NIC-side balance handler: shared logic for gating a sender queue
    on Hop_credit arrivals. Exposed for {!Bfc_transport.Nic}. *)
module Balance : sig
  type b

  (** [create ~queues ~initial] — per-queue balances. *)
  val create : queues:int -> initial:int -> b

  (** Packet of [bytes] departed queue [queue]: consume credit; returns
      whether the queue should now be blocked ([true] = insufficient for
      [next] bytes, where [next] = head-of-queue size or 0 if empty). *)
  val consume : b -> queue:int -> bytes:int -> next:int -> bool

  (** Credit returned. Returns whether the queue may be unblocked for a
      head packet of [next] bytes. *)
  val replenish : b -> queue:int -> bytes:int -> next:int -> bool

  val get : b -> queue:int -> int
end
