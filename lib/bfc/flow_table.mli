(** BFC's flow table (§3.3.1).

    A register array indexed by ⟨egress port, hash(FID)⟩ storing, per
    slot, the physical queue assignment, the number of packets in the
    switch from flows mapping to this slot, and the last-touch timestamp
    used for sticky reassignment. Sized as a multiple of the number of
    queues (100x in the paper: < 1% index collisions when flows <= queues).

    The table is sized to stay mostly empty, so its storage is made on
    first touch, all of it [int array]s in the OCaml heap. Slots are
    grouped in pages of 8 consecutive slots; a page directory holds one
    word per page, and a page, three words per slot ([q], [size],
    [last]), is made from a fixed-size chunk the first time {!slot}
    lands on it. A fresh table is its directory; a run pays three words
    for each slot of the pages it touched. A slot is named by the index
    {!slot} returns and read or written through the accessors below;
    there is no per-slot record. Pages are never moved or freed, so an
    index stays valid for the table's life, {!reset} included. *)

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
    hashes agree in those bits share a slot; different egresses never do.
    The first lookup on a page makes the page.
    @raise Invalid_argument if [egress] is outside [\[0, egresses)]. *)
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

(** Slots with [size > 0] at an egress (diagnostics). This and
    {!resident} read the egress's directory words and only the pages that
    were made; they make none.
    @raise Invalid_argument if [egress] is out of range. *)
val occupied : t -> egress:int -> int

(** Sum of [size] over an egress's slots: the packets the table believes
    are resident at that egress (checked by the fault auditor). *)
val resident : t -> egress:int -> int

(** Wipe every slot back to its initial state (switch reboot). The pages
    stay, so indices taken before the reset name the same slots. *)
val reset : t -> unit
