(** BFC's flow table (§3.3.1).

    A register array indexed by ⟨egress port, hash(FID)⟩ storing, per
    slot, the physical queue assignment, the number of packets in the
    switch from flows mapping to this slot, and the last-touch timestamp
    used for sticky reassignment. Sized as a multiple of the number of
    queues (100x in the paper: < 1% index collisions when flows <= queues).

    The whole table is one flat [int array] in the OCaml heap, three
    words per slot: slot [s] of egress [e] holds [q], [size] and [last]
    at [3 * (e * slots_per_port + s)] and the two words after it. A slot
    is named by the index {!slot} returns and read or written through the
    accessors below; there is no per-slot record. *)

type t

(** [create ~egresses ~queues_per_port ~mult] — [mult x queues_per_port]
    slots per egress, rounded up to the next power of two so the
    per-packet {!slot} lookup is a bit-mask rather than a division. Every
    slot starts as [q = -1] (never assigned), [size = 0],
    [last = min_int]. *)
val create : egresses:int -> queues_per_port:int -> mult:int -> t

val slots_per_port : t -> int

(** Total slots (all egresses). *)
val total_slots : t -> int

(** [slot t ~egress ~fid_hash] — the index of the slot this flow maps to:
    slot [fid_hash land (slots_per_port t - 1)] of [egress]. Flows whose
    hashes agree in those bits share a slot; different egresses never do. *)
val slot : t -> egress:int -> fid_hash:int -> int

(** Physical queue assignment; -1 = never assigned. *)
val q : t -> int -> int

(** Packets from this slot's flows currently in the switch. *)
val size : t -> int -> int

(** Last enqueue/dequeue touch. *)
val last : t -> int -> Bfc_engine.Time.t

val set_q : t -> int -> int -> unit

val set_size : t -> int -> int -> unit

val set_last : t -> int -> Bfc_engine.Time.t -> unit

(** Slots with [size > 0] at an egress (diagnostics). *)
val occupied : t -> egress:int -> int

(** Sum of [size] over an egress's slots: the packets the table believes
    are resident at that egress (checked by the fault auditor). *)
val resident : t -> egress:int -> int

(** Wipe every slot back to its initial state (switch reboot). *)
val reset : t -> unit
