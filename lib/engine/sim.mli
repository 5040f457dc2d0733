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
      Typed events are pooled inside the engine, so the steady-state hot
      path (deliveries, watchdogs, retransmit timers, pacers) allocates
      nothing and dispatches through a direct match instead of a closure
      call. Cancellation uses int tokens ([cancel_token]), so callers need
      no handle field either.

    Both representations share one queue and one (time, rank, seq)
    ordering contract; which one an event uses is invisible to the
    schedule. *)

type t

type handle
(** A scheduled event that can be cancelled. Cancellation is O(1): the event
    stays in the queue but becomes a no-op. The queue holds int ids, not
    handles: a closure handle borrows an id while it is queued and gives
    it back when its entry pops or is purged. The handle record itself is
    never reused, so {!pending} and {!cancel} on a stale handle never
    reach the event that later borrows its id. *)

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

val horizon : Time.t
(** Exclusive bound on event times: 2^42 ns, about 73 minutes of
    virtual time. The (time, rank, seq) order packs the insertion clock
    into the rank's high bits, which overflow at the horizon, so every
    scheduling call and {!run} raise [Invalid_argument] for a time at
    or beyond it. *)

(** [fresh_uid t] draws from a per-simulation counter (packet uids and the
    like). Keeping the counter inside [Sim.t] makes uid sequences
    reproducible across back-to-back runs in one process and race-free when
    independent sims run on separate domains. *)
val fresh_uid : t -> int

(** [at t time f] runs [f] at absolute [time] (>= now). Among events at
    the same [time], execution order is (insertion instant, key,
    insertion order): the clock value at scheduling time first, then the
    optional canonical [~key], then FIFO.

    [~sent] (PDES barrier only) inserts the event as if it had been
    scheduled when the clock read [sent] (which must be in
    [0, now]): among same-[time] events it sorts before everything
    inserted at a later clock — the position a sequential run gives a
    cross-shard delivery scheduled at its send time. It is legal only
    between {!run} calls: from inside an executing event it raises
    [Invalid_argument], since the run loop's same-instant batching
    relies on no insertion ranking below the current clock.

    Raises [Invalid_argument] when [time] is in the past or at or
    beyond {!horizon}.

    [~key] is a canonical tie-break below the insertion instant — a
    globally-known physical identity (ports pass their gid when
    scheduling packet deliveries) that orders same-(time, instant)
    insertions made on different shards without reference to the
    insertion interleaving, which no shard can observe. Defaults to the
    maximum key, so unkeyed events sort after keyed ones at the same
    instant. Must be in [0, 2^20 - 1]. *)
val at : ?sent:Time.t -> ?key:int -> t -> Time.t -> (unit -> unit) -> handle

(** [after t delay f] runs [f] at [now + delay]. [~key] as in {!at}. *)
val after : ?key:int -> t -> Time.t -> (unit -> unit) -> handle

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
(** Transport timer — [a0] = host registry index, [a1] = packed
    (flow id, timer kind: RTO / credit pacer / credit stop / rate
    pacer). *)

val cls_pdes_barrier : int
(** Cross-shard delivery admitted at a conservative-window barrier —
    [a0] = destination node id and ingress port, packed, [a1] = the
    packet's index in the destination sim's packet table. *)

val cls_xpass_resume : int
(** ExpressPass credit-queue resume probe — [a0] = attach registry
    index, [a1] = egress. *)

val cls_flow_start : int
(** Flow arrival — [a0] = the flow's slot in the runner's pending-start
    table, [a1] unused. *)

val cls_flow_reclaim : int
(** Streaming reclaim of a finished flow's transport state — [a0] =
    source host registry index, [a1] = packed (flow id, destination host
    registry index). *)

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
    state — the engine recycles a pooled handle. [?sent] and [?key]
    exactly as in {!at}. Raises [Invalid_argument] on a past [time], a
    [time] at or beyond {!horizon}, or a class outside the typed range ({!register_class} may happen
    later, but must happen before the event fires). *)
val post : ?sent:Time.t -> ?key:int -> t -> Time.t -> cls:int -> a0:int -> a1:int -> unit

type token = int
(** A cancellable typed event, as a plain int: 0 is never a valid token,
    so callers can keep one in a bare mutable field with 0 as "none".
    Tokens are generation-checked — a token outlives its event safely,
    [cancel_token]/[token_pending] on a fired or already-cancelled
    event's token are no-ops. *)

(** Like {!post} but returns a {!token} for cancellation. *)
val post_token : ?sent:Time.t -> ?key:int -> t -> Time.t -> cls:int -> a0:int -> a1:int -> token

(** [cancel_token t tok] cancels the typed event named by [tok] if it is
    still pending; O(1), no-op on 0, stale, fired or cancelled tokens. *)
val cancel_token : t -> token -> unit

(** Is the typed event named by this token still pending? *)
val token_pending : t -> token -> bool

val cancel : handle -> unit

(** Is the event still pending (not run, not cancelled)? *)
val pending : handle -> bool

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

(** Deadline of the earliest queued entry, or [-1] when the queue is
    empty. Cancelled tombstones are included, so the value is a lower
    bound on the next event that will actually execute — exactly what a
    conservative synchronization window needs (a too-early bound shrinks
    the window; it can never overshoot). *)
val next_time : t -> Time.t

(** Number of live scheduled events (cancelled tombstones excluded). *)
val pending_events : t -> int

(** Total events executed over the simulation's lifetime; the denominator
    for events/sec macro benchmarks. *)
val executed_events : t -> int

(** Engine self-profile: how the event load decomposes and how hard the
    event queue and the handle-reuse machinery are working. Maintained
    unconditionally (plain int stores per event); read it at any point.

    - [p_one_shot] / [p_reusable] / [p_ticker]: closure events executed
      per class — fresh [at]/[after] closures, the retired reusable-handle
      class (always 0), and {!every} ticks.
    - [p_typed]: typed events executed ({!post}/{!post_token}), summed
      over all registered classes. A healthy hot path executes mostly
      typed events.
    - [p_heap_hwm]: deepest the pending-event queue ever got (backlog
      high-water mark); [p_heap_capacity] is the backing storage it grew
      to (total wheel bucket slots).
    - [p_cancels]: cancellations (each leaves a tombstone until its
      deadline). *)
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
