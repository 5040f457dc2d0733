(** BFC's pause counters (§3.3.2).

    One counter per ⟨ingress port, upstream queue⟩. A packet that, on
    enqueue, found its assigned queue above the pause threshold increments
    the counter of the ⟨ingress, upstreamQ⟩ it arrived from and is marked;
    when that same packet departs the switch, the counter is decremented.
    The upstream queue must be paused iff its counter is non-zero; the
    0→1 / 1→0 transitions are reported so the dataplane can emit exactly
    one pause / resume message per episode. *)

type edge = Went_up (** 0 -> 1: send Pause *) | Went_down (** 1 -> 0: send Resume *) | No_change

type t

val create : ingresses:int -> max_upstream_q:int -> t

val incr : t -> ingress:int -> upstream_q:int -> edge

val decr : t -> ingress:int -> upstream_q:int -> edge

val count : t -> ingress:int -> upstream_q:int -> int

(** Is this upstream queue currently held paused? *)
(* observation: tests read a queue's pause state; bfc-lint: allow DC001 *)
val paused : t -> ingress:int -> upstream_q:int -> bool

(** All upstream queues of an ingress with non-zero counters (for the
    periodic idempotent pause bitmap). *)
val paused_queues : t -> ingress:int -> int list

(** Sum of all counters (invariant checking: must equal the number of
    marked packets resident in the switch). *)
val total : t -> int

(** Zero every counter (switch reboot). The upstream queues the counters
    held paused get no Resume; their pause watchdogs must recover them. *)
val reset : t -> unit
