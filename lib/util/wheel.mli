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
    Every bucket is then a set of int arrays, so no store into the
    wheel takes the GC's write barrier.

    Cancellation is lazy: callers mark ids dead and supply a
    [garbage] predicate at {!create}; cascades purge dead entries
    instead of re-dealing them. Dead entries that reach level 0 before
    a cascade sweeps them still pop normally (the caller skips them). *)

type t

exception Empty

val create : ?garbage:(int -> bool) -> ?release:(int -> unit) -> unit -> t
(** [create ?garbage ?release ()] makes an empty wheel. [garbage v]
    should return [true] when [v] is a dead (cancelled) entry safe to
    drop during a cascade; it defaults to [fun _ -> false] (never
    purge). [release v] is invoked on every entry the wheel purges as
    garbage, exactly once per purged entry — an owner that pools its
    ids (Sim's event table) uses it to reclaim the id, since a purged
    entry never reaches
    {!pop_min_exn}. Defaults to a no-op. *)

val length : t -> int
(** Resident entries, including dead ones not yet purged or popped. *)

val is_empty : t -> bool

val capacity : t -> int
(** Total allocated bucket slots across all levels (profiling). *)

val push : t -> rank:int -> priority:int -> int -> unit
(** [push t ~rank ~priority v] inserts [v] with deadline [priority];
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
    only when a bucket grows. *)

val push_late : t -> priority:int -> rank:int -> int -> unit
(** Like {!push} but accepts a [rank] below ranks already resident at
    the same deadline, placing the entry at its (deadline, rank,
    insertion order) position — how a PDES barrier inserts a
    cross-shard delivery at the rank of its virtual send time. Costs a
    scan of the target bucket. *)

val head_time : t -> int
(** Deadline of the next entry to pop, or [-1] when the wheel is empty
    (deadlines are non-negative, so [-1] is unambiguous). May advance
    the internal cursor and purge garbage; amortized O(1). *)

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
    execution. [f] may push into the wheel but must not pop. Ordering
    caveat: entries at or above [rank_bound] may still be overtaken by
    pushes [f] makes, so only the caller's bound choice makes batch
    draining order-safe (see the simulator's run loop). Returns 0 when
    the wheel is empty or the head deadline is not [time]. *)

val clear : t -> unit
(** Empty the wheel and rewind the cursor to time 0, keeping bucket
    arrays for reuse. *)
