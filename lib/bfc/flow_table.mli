(** BFC's flow table (§3.3.1).

    A register array indexed by ⟨egress port, hash(FID)⟩ storing, per
    slot, the physical queue assignment, the number of packets in the
    switch from flows mapping to this slot, and the last-touch timestamp
    used for sticky reassignment. Sized as a multiple of the number of
    queues (100x in the paper: < 1% index collisions when flows <= queues).

    The table is sized to stay mostly empty, and only its live slots are
    stored. A slot is {e vacant} when it holds no packets and was either
    never assigned or not touched within the sticky window ({!vacant}):
    classify treats it exactly like a fresh slot, so the table may forget
    it. The other slots sit in a small open-addressing table of four-word
    entries, all of it [int array]s in the OCaml heap, that grows by
    doubling; its size follows the live slots, not [mult].

    {b Index contract.} {!slot} returns an index that names its slot only
    until the next {!slot} call on the same table: a lookup that adds a
    slot may drop the vacant ones and move the rest. Read and write a slot
    through the accessors below between one {!slot} call and the next, and
    take the index again after any other lookup, a simulation step or
    {!reset}. A {!slot} lookup that finds a vacant slot resets it to the
    initial state first, so what a caller reads never depends on when the
    table last dropped vacant slots.

    A fresh slot reads [last = min_int], and [now - min_int] wraps
    negative, so a slot with a queue must have been stamped: the BFC
    dataplane sets [last] whenever it gives a vacant slot a queue, whether
    or not the packet is sampled. *)

type t

(** [create ~egresses ~queues_per_port ~mult ~sticky] — [mult x
    queues_per_port] slots per egress, rounded up to the next power of two
    so the per-packet {!slot} lookup is a bit-mask rather than a division.
    Every slot starts as [q = -1] (never assigned), [size = 0],
    [last = min_int]. [sticky] is the window after which an empty slot's
    assignment may be replaced (§3.3.2). *)
val create :
  egresses:int -> queues_per_port:int -> mult:int -> sticky:Bfc_engine.Time.t -> t

(* observation: tests check the table's sizing; bfc-lint: allow DC001 *)
val slots_per_port : t -> int

(** [slot t ~egress ~fid_hash ~now] — the index of the slot this flow maps
    to: slot [fid_hash land (slots_per_port t - 1)] of [egress]. Flows
    whose hashes agree in those bits share a slot; different egresses never
    do. A vacant slot reads the initial state. The index is valid until the
    next [slot] call on [t] (see the index contract above).
    @raise Invalid_argument if [egress] is outside [\[0, egresses)]. *)
val slot : t -> egress:int -> fid_hash:int -> now:Bfc_engine.Time.t -> int

(** [vacant t i ~now] — [size = 0] and either [q < 0] or
    [now - last > sticky]: the slot carries no state classify would use,
    so a flow landing on it gets a fresh queue assignment. *)
val vacant : t -> int -> now:Bfc_engine.Time.t -> bool

(** Physical queue assignment; -1 = never assigned. *)
val q : t -> int -> int

(** Packets from this slot's flows currently in the switch. *)
val size : t -> int -> int

(** Last touch: a sampled enqueue or dequeue, or a queue assignment. *)
(* observation: tests read a slot's last touch; bfc-lint: allow DC001 *)
val last : t -> int -> Bfc_engine.Time.t

val set_q : t -> int -> int -> unit

val set_size : t -> int -> int -> unit

val set_last : t -> int -> Bfc_engine.Time.t -> unit

(** Slots with [size > 0] at an egress (diagnostics). This and
    {!resident} read every stored entry once, so they cost O({!capacity}).
    @raise Invalid_argument if [egress] is out of range. *)
(* observation: tests count occupied slots; bfc-lint: allow DC001 *)
val occupied : t -> egress:int -> int

(** Sum of [size] over an egress's slots: the packets the table believes
    are resident at that egress (checked by the fault auditor). *)
val resident : t -> egress:int -> int

(** Entries the table has room for (diagnostics). *)
(* observation: tests check the table's growth; bfc-lint: allow DC001 *)
val capacity : t -> int

(** Times a lookup dropped the vacant slots to make room since {!create}
    or the last {!reset} (diagnostics). *)
(* observation: tests check that purges ran; bfc-lint: allow DC001 *)
val purges : t -> int

(** Wipe every slot back to its initial state (switch reboot); the table
    returns to its fresh size. *)
val reset : t -> unit
