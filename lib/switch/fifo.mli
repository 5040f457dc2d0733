(** One physical FIFO queue at an egress port (or NIC).

    Queues can be paused/resumed individually (the Tofino2 capability BFC
    builds on). Pausing affects scheduling eligibility only; enqueues are
    still accepted (admission is the buffer model's job).

    Storage is a power-of-two ring of packet indices into the sim's
    packet table ({!Bfc_net.Packet.Pool}): it doubles when full and is
    never shrunk, so a queue costs no allocation once it has reached its
    high-water mark, and an enqueue stores an int — no GC write
    barrier. *)

type t = {
  idx : int; (** queue index within its egress port *)
  cls : int; (** traffic class this queue belongs to *)
  pool : Bfc_net.Packet.Pool.t; (** the packet table [ring] indexes *)
  mutable ring : int array; (** packet indices; use the functions below *)
  mutable head : int; (** slot of the oldest packet *)
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
    has no index yet. *)
val push : t -> Bfc_net.Packet.t -> unit

(** Remove and return the oldest packet. Raises [Invalid_argument] when
    empty. *)
val pop : t -> Bfc_net.Packet.t

(** Head packet's size in bytes; [0] when empty (used by credit gating). *)
val head_size : t -> int

(** Head packet's [remaining] header field; [max_int] when empty (used by
    SRF scheduling). *)
val head_remaining : t -> int
