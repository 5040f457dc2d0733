(** One physical FIFO queue at an egress port (or NIC).

    Queues can be paused/resumed individually (the Tofino2 capability BFC
    builds on). Pausing affects scheduling eligibility only; enqueues are
    still accepted (admission is the buffer model's job).

    A queue is a singly linked list threaded through its packets: [head]
    and [tail] are indices into the sim's packet table
    ({!Bfc_net.Packet.Pool}), and each resident packet's
    {!Bfc_net.Packet.link} names the next one. A queued packet therefore
    costs nothing beyond its own record, a queue allocates nothing, and
    an enqueue stores ints — no GC write barrier. A packet is in at most
    one queue at a time, and never in one while released. *)

type t = {
  idx : int; (** queue index within its egress port *)
  cls : int; (** traffic class this queue belongs to *)
  pool : Bfc_net.Packet.Pool.t; (** the packet table [head] and [tail] index *)
  mutable head : int; (** index of the oldest packet; use the functions below *)
  mutable tail : int; (** index of the newest packet *)
  mutable len : int; (** resident packets *)
  mutable bytes : int;
  mutable paused : bool; (** per-queue (BFC) pause *)
  mutable deficit : int; (** DRR state *)
  mutable in_ring : bool; (** scheduler bookkeeping *)
}

(** [create ~pool ~idx ~cls] — an empty queue over packet table [pool]
    (the sim's, {!Bfc_net.Port.pool}). *)
val create : pool:Bfc_net.Packet.Pool.t -> idx:int -> cls:int -> t

val is_empty : t -> bool

val length : t -> int

(** Enqueue at the tail, indexing the packet in the queue's table if it
    has no index yet. Raises [Invalid_argument] for a released packet. *)
val push : t -> Bfc_net.Packet.t -> unit

(** Remove and return the oldest packet. Raises [Invalid_argument] when
    empty. *)
val pop : t -> Bfc_net.Packet.t

(** Head packet's size in bytes; [0] when empty (used by credit gating). *)
val head_size : t -> int

(** Head packet's [remaining] header field; [max_int] when empty (used by
    SRF scheduling). *)
val head_remaining : t -> int

(** [iter f t] applies [f] to the resident packets, oldest first. *)
val iter : (Bfc_net.Packet.t -> unit) -> t -> unit

(** [None] when the queue's chain is well formed: from [head], [len]
    links reach [tail] through packets of the table that are not
    released, the tail's link ends the chain, and the packets' sizes sum
    to [bytes]. Otherwise what is wrong, for an audit report. *)
val chain_fault : t -> string option
