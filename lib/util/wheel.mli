(** Hierarchical timing wheel: an O(1)-amortized event queue for
    monotone discrete-event workloads.

    Entries are keyed by a non-negative integer deadline ([priority])
    and pop in strict (deadline, rank, insertion order) sequence, so a
    simulator replays byte-identical schedules. The rank is a
    caller-supplied secondary key; {!push} requires it
    to be non-decreasing among same-deadline entries (free when the
    rank is the simulator's monotone clock).

    The wheel is hierarchical: 8 levels of 256 power-of-two buckets,
    covering the full non-negative [int] range. Far-future entries park
    in coarse upper-level buckets and cascade down as the cursor
    advances; near-term entries (the overwhelmingly common case in the
    BFC engine: short-horizon rearms) hit a level-0 bucket directly.

    Monotonicity contract: deadlines must never be below the last
    popped deadline. Pushing below the {e cursor} is allowed — the
    cursor can sit ahead of the last pop when the head was peeked but
    not consumed — and is handled by a sorted insert into the cursor
    bucket.

    An entry is a record of ints in one slab: its key, a three-int
    payload ([cls], [a0], [a1]) and a generation. The owner keeps its
    events in the records themselves (the simulator stores a typed
    event's class and arguments), so a pop hands back the event, not a
    pointer to it. The slab is a single int array of fixed-size records
    with a free list, and each bucket is a doubly-linked list through
    it. Storage is therefore sized by the peak number of resident
    entries, and no store into the wheel takes the GC's write barrier.

    {!push} returns the new entry's id, its record's offset, which
    {!remove} takes to unlink the entry in O(1): a cancelled entry
    leaves the wheel at once. An id is valid from its
    push until the entry pops or is removed; the wheel then reuses the
    record for a later entry, after bumping its {!gen}. *)

type t

exception Empty

val create : unit -> t
(** An empty wheel with its cursor at time 0. *)

val length : t -> int
(** Resident entries: pushed and not yet popped or removed. *)

val capacity : t -> int
(** Entry records the slab holds (profiling): [64 * 2^k] for the
    smallest [k] that covers the peak {!length} so far, or the largest
    {!reserve}d length if that is more. *)

val reserve : t -> int -> unit
(** [reserve t n] grows the slab at once to the capacity that [n] more
    pushes would grow it to, so a batch of pushes copies it once. Ids and
    the pop order are unaffected. *)

val push : t -> rank:int -> priority:int -> cls:int -> a0:int -> a1:int -> int
(** [push t ~rank ~priority ~cls ~a0 ~a1] inserts an entry with
    deadline [priority] and payload [(cls, a0, a1)] and returns its id;
    [rank] breaks deadline ties ahead of insertion order (pass 0 for
    plain FIFO ties). It is a required argument because a call site
    boxes every optional argument it passes, once per event.
    [priority] must be [>= 0] and at or after the last popped deadline.
    Ranks must be pushed in non-decreasing order except within a
    trailing burst (the simulator: insertions at one clock instant,
    whose rank low bits carry a canonical key) — the burst is
    insertion-sorted on arrival, zero-cost when ranks arrive monotone.
    A rank below ranks pushed before the current burst silently
    mis-orders. Amortized O(1); allocates only when the slab doubles. *)

val remove : t -> int -> unit
(** [remove t e] unlinks resident entry [e]; O(1). The entries around
    it keep their order, and [e]'s payload stays readable until a push
    reuses the record.
    @raise Invalid_argument when [e] is not a resident entry's id (a
    popped or removed entry whose id has not been reused yet is
    caught; a reused one is another entry, so the caller must not keep
    ids past their entry's lifetime, or must check {!gen}). *)

val resident : t -> int -> bool
(** Is [e] a resident entry's id? Safe on any int: an id outside the
    slab, inside the sentinel region or off a record boundary answers
    [false] without reading out of bounds. *)

val cls : t -> int -> int
val a0 : t -> int -> int
val a1 : t -> int -> int
(** The payload of record [e]. [e] must be an id the wheel handed out
    (by a push, pop or drain) or one {!resident} accepted: these read
    without a bounds check. A popped or removed record keeps its payload
    until a push reuses it. *)

val gen : t -> int -> int
(** How many times record [e] has left the wheel (popped or removed),
    so a resident record's [gen] names its current entry: an owner that
    remembers [(e, gen)] can tell its entry from a later one in the
    same record. Same precondition on [e] as {!cls}. *)

val head_time : t -> int
(** Deadline of the next entry to pop, or [-1] when the wheel is empty
    (deadlines are non-negative, so [-1] is unambiguous). May advance
    the internal cursor; amortized O(1). *)

val pop_min_exn : t -> int
(** Remove the entry with the smallest (deadline, rank, insertion
    order) and return its id, whose payload the caller reads before it
    pushes again. Never allocates. @raise Empty when the wheel is
    empty. *)

val drain_run : t -> time:int -> rank_bound:int -> (int -> unit) -> int
(** [drain_run t ~time ~rank_bound f] pops a same-instant batch,
    calling [f] on each entry in pop order, and returns the batch
    length: the maximal leading run of entries at deadline [time] whose
    rank is strictly below [rank_bound], or exactly one entry when the
    head is at or above the bound. One cursor reposition covers the
    whole batch (against one per {!head_time}/{!pop_min_exn} pair),
    which is the wheel's share of the simulator's same-instant batch
    execution. Each entry leaves the wheel before [f] runs on it, and
    [f] gets its id: the payload is intact until [f] pushes. [f] may
    push into the wheel or remove entries but must not pop. Ordering
    caveat: entries at or above [rank_bound] may still be overtaken by
    pushes [f] makes, so only the caller's bound choice makes batch
    draining order-safe (see the simulator's run loop). Returns 0 when
    the wheel is empty or the head deadline is not [time]. *)
