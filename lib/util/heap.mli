(** Binary min-heap with integer priorities and stable ordering.

    The event queue of the simulator sits on top of this heap; entries
    pop in (priority, rank, insertion order), where the rank is a
    caller-supplied secondary key — the simulator
    passes its clock at insertion so a PDES barrier can place a
    cross-shard delivery at the position a sequential run would have
    given it. With equal or monotone ranks the order reduces to
    (priority, insertion order), so simulations stay deterministic.
    Storage is four parallel arrays (priority, rank, sequence, value),
    so the non-option accessors below allocate nothing. *)

type 'a t

(** Raised by {!pop_min_exn} and {!peek_priority} on an empty heap. *)
exception Empty

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** Current backing-array capacity (grows geometrically, kept by {!clear}). *)
val capacity : 'a t -> int

(** [push t ~rank ~priority v] inserts [v]; [rank] breaks priority ties
    ahead of insertion order (pass 0 for plain FIFO ties). Amortized
    O(log n). *)
val push : 'a t -> rank:int -> priority:int -> 'a -> unit

(** [pop t] removes and returns the minimum-priority element (FIFO among
    equal priorities). Allocates the result tuple; the hot path should use
    {!peek_priority} + {!pop_min_exn} instead. *)
val pop : 'a t -> (int * 'a) option

(** [pop_min_exn t] removes and returns the minimum element without
    allocating. Raises {!Empty} when the heap is empty. *)
val pop_min_exn : 'a t -> 'a

(** [peek_priority t] is the priority of the minimum element, without
    allocating. Raises {!Empty} when the heap is empty. *)
val peek_priority : 'a t -> int

(** [drain_run t ~time ~rank_bound f] pops a same-instant batch,
    calling [f] on each entry in pop order, and returns the batch
    length — the same contract as {!Bfc_util.Wheel.drain_run}, so the
    simulator's fused run loop is backend-agnostic: the maximal leading
    run at priority [time] with rank strictly below [rank_bound], or
    exactly one entry when the head is at or above the bound. [f] may
    push but must not pop. *)
val drain_run : 'a t -> time:int -> rank_bound:int -> ('a -> unit) -> int

(** [peek t] returns the minimum without removing it. *)
val peek : 'a t -> (int * 'a) option

(** [min_priority t] is the priority of the minimum element. *)
val min_priority : 'a t -> int option

(** Empties the heap but keeps the backing arrays, so a cleared heap refills
    without re-growing from zero capacity. *)
val clear : 'a t -> unit
