(** Egress-port packet scheduler.

    Policies:
    - [Drr]: deficit round robin among eligible queues (per-flow fair
      queuing when each flow has its own queue — BFC's default, §3.3.1);
    - [Srf]: serve the eligible queue whose head packet has the smallest
      remaining-flow-size header (BFC-SRF, App. A.2);
    - [Prio_strict]: strict priority by queue index (Homa's priority
      queues).

    With [classes > 1], queues are statically partitioned among classes
    (queue [i] belongs to class [i * classes / n_queues]); classes are
    served in strict priority and the policy applies within a class
    (App. A.3).

    A queue is *eligible* when it has packets, is not BFC-paused, and its
    egress is not PFC-paused. The scheduler is notified of state changes via
    [activate] (queue may have become servable).

    Each class keeps a ring of candidate queue indices in a fixed int
    array sized by the class's queue count, so only queues passed to
    {!create} may be pushed or activated. *)

type policy = Drr | Srf | Prio_strict

type t

(** [create policy ~queues ~classes ~quantum]: queue [i] of [queues]
    must have [Fifo.idx = i] (raises [Invalid_argument] otherwise). *)
val create : policy -> queues:Fifo.t array -> classes:int -> quantum:int -> t

(** Enqueue through the scheduler so its backlog accounting stays exact. *)
val push : t -> Fifo.t -> Bfc_net.Packet.t -> unit

(** Pause or resume a queue (BFC's per-queue pause). *)
val set_paused : t -> Fifo.t -> bool -> unit

(** Pick and pop the next packet to transmit, honouring pauses; it is
    {!Bfc_net.Packet.placeholder} (compare with [==]) when no queue is
    eligible. Updates DRR deficits. Allocates nothing and stores no
    pointer. *)
val take : t -> Bfc_net.Packet.t

(** The queue of the last successful {!take}. *)
val served : t -> Fifo.t

(** [flush t f] empties every queue, calling [f] on each resident packet
    (oldest first per queue), and resets all scheduler state: pauses,
    deficits, candidate rings, backlog counts. Models a device losing its
    buffered packets (switch drain / reboot). *)
val flush : t -> (Bfc_net.Packet.t -> unit) -> unit

(** Number of active queues: non-empty and not paused (the paper's
    N_active, used for the pause threshold Th). *)
val n_active : t -> int

(** Non-empty queue count regardless of pauses. *)
(* observation: tests read the backlog count; bfc-lint: allow DC001 *)
val n_backlogged : t -> int
