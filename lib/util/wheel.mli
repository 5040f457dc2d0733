(** Hierarchical timing wheel: an O(1)-amortized event queue for
    monotone discrete-event workloads.

    Entries are keyed by a non-negative integer deadline ([priority])
    and pop in strict (deadline, rank, insertion order) sequence, so a
    simulator replays byte-identical schedules. The rank is a
    caller-supplied secondary key; {!push} requires it
    to be non-decreasing among same-deadline entries (free when the
    rank is the simulator's monotone clock), while {!push_late} accepts
    arbitrary ranks at a per-push scan cost.

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

    Payloads are ints: the owner keeps its entries in a table of its
    own and queues their ids (the simulator queues event-pool slots).
    All entries live in one slab, a single int array of fixed-size
    records with a free list, and each bucket is a doubly-linked list
    through it. Storage is therefore sized by the peak number of
    resident entries, and no store into the wheel takes the GC's write
    barrier.

    {!push} and {!push_late} return the new entry's id, which {!remove}
    takes to unlink the entry in O(1): a cancelled entry leaves the
    wheel at once. An id is valid from its push until the entry pops or
    is removed; the wheel then reuses it for a later entry. *)

type t

exception Empty

val create : unit -> t
(** An empty wheel with its cursor at time 0. *)

val length : t -> int
(** Resident entries: pushed and not yet popped or removed. *)

val is_empty : t -> bool

val capacity : t -> int
(** Entry records the slab holds (profiling): [64 * 2^k] for the
    smallest [k] that covers the peak {!length} so far. *)

val push : t -> rank:int -> priority:int -> int -> int
(** [push t ~rank ~priority v] inserts [v] with deadline [priority] and
    returns the entry's id;
    [rank] breaks deadline ties ahead of insertion order (pass 0 for
    plain FIFO ties). It is a required argument because a call site
    boxes every optional argument it passes, once per event.
    [priority] must be [>= 0] and at or after the last popped deadline.
    Ranks must be pushed in non-decreasing order except within a
    trailing burst (the simulator: insertions at one clock instant,
    whose rank low bits carry a canonical key) — the burst is
    insertion-sorted on arrival, zero-cost when ranks arrive monotone.
    A rank below ranks pushed before the current burst silently
    mis-orders (use {!push_late} for that). Amortized O(1); allocates
    only when the slab doubles. *)

val push_late : t -> priority:int -> rank:int -> int -> int
(** Like {!push} but accepts a [rank] below ranks already resident at
    the same deadline, placing the entry at its (deadline, rank,
    insertion order) position — how a PDES barrier inserts a
    cross-shard delivery at the rank of its virtual send time. Costs a
    scan of the target bucket. Returns the entry's id. *)

val remove : t -> int -> int
(** [remove t e] unlinks resident entry [e] and returns its payload;
    O(1). The entries around it keep their order.
    @raise Invalid_argument when [e] is not a resident entry's id (a
    popped or removed entry whose id has not been reused yet is
    caught; a reused one is another entry, so the caller must not keep
    ids past their entry's lifetime). *)

val head_time : t -> int
(** Deadline of the next entry to pop, or [-1] when the wheel is empty
    (deadlines are non-negative, so [-1] is unambiguous). May advance
    the internal cursor; amortized O(1). *)

val pop_min_exn : t -> int
(** Remove and return the entry with the smallest (deadline, insertion
    order). Never allocates. @raise Empty when the wheel is empty. *)

val drain_run : t -> time:int -> rank_bound:int -> (int -> unit) -> int
(** [drain_run t ~time ~rank_bound f] pops a same-instant batch,
    calling [f] on each entry in pop order, and returns the batch
    length: the maximal leading run of entries at deadline [time] whose
    rank is strictly below [rank_bound], or exactly one entry when the
    head is at or above the bound. One cursor reposition covers the
    whole batch (against one per {!head_time}/{!pop_min_exn} pair),
    which is the wheel's share of the simulator's same-instant batch
    execution. Each entry leaves the wheel before [f] runs on it. [f]
    may push into the wheel or remove entries but must not pop. Ordering
    caveat: entries at or above [rank_bound] may still be overtaken by
    pushes [f] makes, so only the caller's bound choice makes batch
    draining order-safe (see the simulator's run loop). Returns 0 when
    the wheel is empty or the head deadline is not [time]. *)
