(** One physical FIFO queue at an egress port (or NIC).

    Queues can be paused/resumed individually (the Tofino2 capability BFC
    builds on). Pausing affects scheduling eligibility only; enqueues are
    still accepted (admission is the buffer model's job).

    Storage is a power-of-two array ring that doubles when full and is
    never shrunk, so a queue costs no allocation once it has reached its
    high-water mark. *)

type t = {
  idx : int; (** queue index within its egress port *)
  cls : int; (** traffic class this queue belongs to *)
  mutable ring : Bfc_net.Packet.t array; (** storage; use the functions below *)
  mutable head : int; (** slot of the oldest packet *)
  mutable len : int; (** resident packets *)
  mutable bytes : int;
  mutable paused : bool; (** per-queue (BFC) pause *)
  mutable deficit : int; (** DRR state *)
  mutable in_ring : bool; (** scheduler bookkeeping *)
}

val create : idx:int -> cls:int -> t

val is_empty : t -> bool

val length : t -> int

val push : t -> Bfc_net.Packet.t -> unit

(** Remove and return the oldest packet. Raises [Invalid_argument] when
    empty. *)
val pop : t -> Bfc_net.Packet.t

(** The oldest packet, left in place. Raises [Invalid_argument] when
    empty. *)
val peek_exn : t -> Bfc_net.Packet.t

(** Head packet's size in bytes; [0] when empty (used by credit gating). *)
val head_size : t -> int

(** Head packet's [remaining] header field; [max_int] when empty (used by
    SRF scheduling). *)
val head_remaining : t -> int
