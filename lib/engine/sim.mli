(** The discrete-event simulation core.

    A [Sim.t] owns the virtual clock and the pending-event queue. Components
    schedule events at absolute or relative times; [run] executes events in
    time order (FIFO among simultaneous events) until the horizon or until
    the event set drains.

    Events come in two representations:

    - {b closures} ([at]/[after]/[every]) — fully general, one heap
      allocation and an indirect call per occurrence. The control plane
      and out-of-tree callers use these.
    - {b typed posts} ([post]/[post_token]) — a class id from the small
      fixed enum below plus two immediate int args, fired through a
      per-class executor registered once per sim with [register_class].
      A typed event is one record in the event queue's slab, holding its
      class and args next to its deadline, so the steady-state hot path
      (deliveries, watchdogs, retransmit timers, pacers) allocates
      nothing and fires straight from the record it pops, through an
      executor table instead of a closure call. Cancellation uses int
      tokens ([cancel_token]), so callers need no handle field either.

    Both representations share one queue and one (time, rank, seq)
    ordering contract; which one an event uses is invisible to the
    schedule. *)

type t

type handle
(** A scheduled closure event that can be cancelled. Cancellation is
    O(1): the event leaves the queue at once. The queue holds ints, not
    handles: a handle borrows an id while it is queued, which its queue
    record carries, and gives it back when the record pops or is
    cancelled. The handle itself is never reused, so {!cancel} on a
    stale handle never reaches the event that later borrows its id. *)

(** Per-class executor state. Each subsystem extends this variant with a
    constructor carrying its own registry (ports, switches, flow tables...)
    and hands it to {!register_class}; the engine stores and returns it
    without inspecting it. *)
type user = ..

type user += No_state

val create : unit -> t
(** A fresh simulation at time 0. The pending-event queue is the
    hierarchical timing wheel ({!Bfc_util.Wheel}, amortized O(1)). *)

(** Current virtual time. *)
val now : t -> Time.t

(** The sim's observation tap: every device on this sim reports to it,
    every observer of this sim registers on it. *)
val tap : t -> Tap.t

(* observation: tests schedule at the bound; bfc-lint: allow DC001 *)
val horizon : Time.t
(** Exclusive bound on event times: 2^42 ns, about 73 minutes of
    virtual time. The (time, rank, seq) order packs the insertion clock
    into the rank's high bits, which overflow at the horizon, so every
    scheduling call and {!run} raise [Invalid_argument] for a time at
    or beyond it. *)

(** [at t time f] runs [f] at absolute [time] (>= now). Among events at
    the same [time], execution order is (insertion instant, key,
    insertion order): the clock value at scheduling time first, then the
    canonical key ({!post}'s [~key]; every other event has the maximum
    key, so it sorts after keyed ones at the same instant), then FIFO.

    Raises [Invalid_argument] when [time] is in the past or at or
    beyond {!horizon}. *)
val at : t -> Time.t -> (unit -> unit) -> handle

(** [after t delay f] runs [f] at [now + delay]. *)
val after : t -> Time.t -> (unit -> unit) -> handle

(** {2 Typed event classes}

    Engine-reserved class ids. They are names, not priorities: class ids
    never enter the rank and never affect ordering. Classes 0–2 are the
    closure representations and cannot be posted to directly. *)

val cls_port_tx : int
(** Port transmit wakeup — [a0] = port registry index, [a1] unused. *)

val cls_delivery : int
(** In-flight packet delivery at a port — [a0] = port registry index,
    [a1] = the packet's index in the sim's packet table. The event is the
    only thing holding an in-flight packet, data or control. *)

val cls_switch_ctrl : int
(** Switch watchdog (egress-queue or PFC unpause) — [a0] = switch
    registry index, [a1] = packed (epoch, egress, queue). *)

val cls_nic_ctrl : int
(** NIC watchdog (per-queue pause or PFC) — [a0] = NIC registry index,
    [a1] = packed (epoch, queue). *)

val cls_flow_timeout : int
(** Transport timer — [a0] = packed (host registry index, timer kind:
    RTO / credit pacer / credit stop / rate pacer), [a1] = the flow word
    (slot, id) its packets carry. *)

val cls_xpass_resume : int
(** ExpressPass credit-queue resume probe — [a0] = attach registry
    index, [a1] = egress. *)

val cls_flow_start : int
(** Flow arrival — either [a0] = the flow's slot in the sim's flow table
    and [a1] = -1, or [a0] = the flow id and [a1] = packed (source,
    destination) node ids of a single-MTU flow whose record the flow table
    hands out when the event fires. *)

val cls_flow_reclaim : int
(** Streaming reclaim of a finished flow's transport state — [a0] = the
    source's host registry index, [a1] = the flow word (slot, id) its
    packets carry. *)

val n_classes : int
(** Exclusive upper bound on class ids (16). Ids in
    [[cls_port_tx, n_classes)] not claimed above are free for
    out-of-tree subsystems. *)

(** [register_class t ~cls ~state ~exec] installs the executor for a
    typed class on this sim: every event posted with [~cls] fires as
    [exec state a0 a1]. One executor per (sim, class); registering again
    replaces it (subsystems call this idempotently from their [attach]/
    [create] paths). Raises [Invalid_argument] for class ids outside
    [[cls_port_tx, n_classes)]. *)
val register_class : t -> cls:int -> state:user -> exec:(user -> int -> int -> unit) -> unit

(** [class_state t ~cls] is the state registered for [cls] on this sim,
    or [None] — how a subsystem finds (or decides to create) its
    per-sim registry when attaching a second instance. *)
val class_state : t -> cls:int -> user option

(** [post t time ~cls ~a0 ~a1] schedules a typed fire-and-forget event:
    [exec state a0 a1] runs at absolute [time]. No allocation in steady
    state: the class and args go into the queue record itself, which the
    queue recycles. [~key] is a canonical tie-break below the insertion
    instant (see {!at}): a physical identity (ports pass their gid when
    scheduling packet deliveries) that orders same-(time, instant)
    insertions without reference to the insertion interleaving. It
    defaults to the maximum key and must be in [0, 2^20 - 1]. Raises
    [Invalid_argument] on a past [time], a [time] at or beyond
    {!horizon}, or a class outside the typed range ({!register_class}
    may happen later, but must happen before the event fires). *)
val post : ?key:int -> t -> Time.t -> cls:int -> a0:int -> a1:int -> unit

type token = int
(** A cancellable typed event, as a plain int: 0 is never a valid token,
    so callers can keep one in a bare mutable field with 0 as "none".
    Tokens are generation-checked — a token outlives its event safely,
    [cancel_token]/[token_pending] on a fired or already-cancelled
    event's token are no-ops, and so are they on any int that is not a
    pending typed event's token. *)

(** Like {!post} (with the default key) but returns a {!token} for
    cancellation. *)
val post_token : t -> Time.t -> cls:int -> a0:int -> a1:int -> token

(** [cancel_token t tok] cancels the typed event named by [tok] if it is
    still pending, removing it from the queue; O(1), no-op on 0, stale,
    fired or cancelled tokens. *)
val cancel_token : t -> token -> unit

(** Is the typed event named by this token still pending? *)
val token_pending : t -> token -> bool

(* tests drive the closure cancellation that Sim.every's stop uses; bfc-lint: allow DC001 *)
val cancel : handle -> unit

(** [every t ~period f] runs [f] every [period] starting at [now + period],
    until [stop_ticker] is called on the returned controller. The ticker
    reuses one handle for its whole life, so steady-state ticking allocates
    nothing per period. A tick that would land at or beyond {!horizon}
    raises [Invalid_argument]. *)
type ticker

val every : t -> period:Time.t -> (unit -> unit) -> ticker

(** Stops the ticker and cancels its armed handle, so the pending-event
    count drops immediately instead of carrying a dead event to its
    deadline. *)
val stop_ticker : ticker -> unit

(** [run t ~until] processes events until the clock passes [until] or the
    queue drains. Returns the number of events executed. The clock is left at
    [until]. Raises [Invalid_argument] if [until] is at or beyond
    {!horizon}. *)
val run : t -> until:Time.t -> int

(** Raised by [run_until_idle] when the event count exceeds the safety cap:
    the simulation is executing events but not converging (e.g. a pause
    storm, a retransmission livelock). Carries the virtual time reached and
    the number of events still pending so the stall is diagnosable. *)
exception Runaway of { now : Time.t; pending_events : int }

(** [run_until_idle t] processes everything; intended for closed workloads
    with a natural end. Returns events executed.
    Raises {!Runaway} after [cap] events (default 2^30). *)
val run_until_idle : ?cap:int -> t -> int

(** Number of scheduled events not yet fired or cancelled. *)
(* observation: tests read the queue length; bfc-lint: allow DC001 *)
val pending_events : t -> int

(** [reserve t n] makes room in the queue for [n] more events at once,
    for a caller about to post a batch of them: the queue then grows in
    one copy rather than doubling its way up, leaving one old slab for
    the GC instead of log n. Schedules are unaffected. *)
val reserve : t -> int -> unit

(** Total events executed over the simulation's lifetime; the denominator
    for events/sec macro benchmarks. *)
val executed_events : t -> int

(** Engine self-profile: how the event load decomposes and how hard the
    event queue is working. Maintained
    unconditionally (plain int stores per event); read it at any point.

    - [p_one_shot] / [p_reusable] / [p_ticker]: closure events executed
      per class — fresh [at]/[after] closures, the retired reusable-handle
      class (always 0), and {!every} ticks.
    - [p_typed]: typed events executed ({!post}/{!post_token}), summed
      over all registered classes. A healthy hot path executes mostly
      typed events.
    - [p_heap_hwm]: the most events ever pending at once (backlog
      high-water mark; cancelled events leave the queue, so only live
      events count); [p_heap_capacity] is the entry records the wheel's
      slab grew to ({!Bfc_util.Wheel.capacity}), at most
      [max 64 (2 * p_heap_hwm)].
    - [p_cancels]: cancellations, each of which removed its event from
      the queue. *)
type profile = {
  p_one_shot : int;
  p_reusable : int;
  p_ticker : int;
  p_typed : int;
  p_heap_hwm : int;
  p_heap_capacity : int;
  p_cancels : int;
  p_executed : int;
  p_live : int;
}

val profile : t -> profile
