(* The pending-event queue is the hierarchical timing wheel
   ([Bfc_util.Wheel], amortized O(1) on the engine's event mix, which is
   dominated by short-horizon rearms). It orders entries by strict
   (time, rank, insertion-seq).

   The rank packs two components: the clock at the moment of insertion
   (high bits) and a caller-supplied canonical key (low [key_bits] bits,
   default [key_mask]). Within one simulation the clock is monotone, so
   for events inserted at different instants the order is exactly the
   classic (time, insertion order). The two refinements exist for the
   PDES barrier ([Bfc_sim.Pdes]), which must insert a cross-shard
   delivery at the end of the window that produced it — later than the
   sequential run would have inserted it — yet have it execute in
   exactly the sequential position:

   - [at ~sent] stamps the event with its virtual send time, so it
     sorts among same-time events as if inserted back then;
   - [~key] (ports pass their gid when scheduling deliveries) breaks
     the remaining tie — several insertions at the same (time, clock)
     on different shards — by a globally-known physical identity
     instead of the insertion interleaving, which no shard can observe.
     The cost is that same-(time, clock) ties in a sequential run are
     canonicalized too (port deliveries sort by source gid, ahead of
     same-instant non-port events): a reordering of simultaneous
     events with no physical meaning, applied identically everywhere
     so sharded and sequential schedules agree byte-for-byte.

   Event representation (the typed event table). A queued event is a
   [handle]; its [cls] field selects how it fires:

   - classes 0–2 (closure one-shot / reusable / ticker) carry a
     [unit -> unit] closure — the original representation, kept for the
     control plane behind [at]/[after]/[every] (nothing schedules the
     reusable class any more; its profile count reads 0);
   - classes 3+ are typed: the handle carries two immediate int args
     ([a0], [a1]) and fires through a per-class executor registered
     once per (sim, class) with [register_class]. Typed handles are
     pooled — [post] pulls one from a free list, firing or purging
     returns it — so the steady-state hot path (deliveries, watchdogs,
     RTOs, pacers) allocates nothing per event and dispatches through
     one direct [match] + array-indexed call to a single shared
     executor per class, instead of an indirect call to one of
     thousands of short-lived closures. Per-flow work (flow start,
     state reclaim, transport timers) is typed too.

   Queue ids. The wheel holds ints, not handles, so no store into it
   takes the write barrier: a typed handle is queued as its pool slot
   ([>= 0]); a closure handle borrows a negative id from a second table
   ([cq]) for as long as it is queued, and the id goes back to its free
   list when the entry pops or is purged. The handle record a caller
   holds is never reused, so a stale handle cannot reach whichever event
   later borrows its id: [pending] and [cancel] read the record, never
   the id.

   Pooled-handle lifecycle: a slot is on the free list iff no queue
   entry references it. Cancellation ([cancel_token]) only tombstones —
   it bumps the handle's generation so the token dies, but the slot is
   reclaimed at the point the queue disposes of the entry: a pop (a
   tombstone that reaches level 0) or the wheel's garbage purge (the
   [release] hook). Reclaiming any earlier would let the slot be
   re-armed while the stale entry is still queued, and the stale entry
   would then fire the new event at the old deadline. Generations start
   at 1 and only grow, so a token is never 0 and — with the
   [safety_cap] bounding lifetime executions at 2^30 — never collides
   with a previous incarnation of its slot.

   Same-instant batch execution: the run loop drains the maximal run of
   head entries sharing the head deadline whose rank is below
   [time lsl key_bits] — i.e. inserted at a strictly earlier clock —
   and executes them as one batch. Events pushed by the batch at the
   same instant carry rank >= the bound (the clock has caught up), so
   they sort after every drained entry and cannot be overtaken; entries
   already queued with rank >= the bound pop singly, because a new push
   at the same instant with a smaller canonical key may still belong
   before them. That is the whole ordering argument: the (time, rank,
   seq) contract is untouched, batching only amortizes the per-event
   head probe and cursor repositioning. The one scheduling form that
   could violate the bound — [at ~sent], whose rank is below the
   current clock — is only legal between [run] calls (the PDES window
   coordinator): the run loop raises an [in_run] flag, and a [~sent]
   insertion made while it is up raises [Invalid_argument]. See
   DESIGN.md §16 for the proof obligation. *)

module Wheel = Bfc_util.Wheel

(* Per-class executor state: each subsystem extends this with its own
   constructor (a registry of ports, switches, flows...) so executors
   get their targets by int index without the sim depending on any of
   them. *)
type user = ..

type user += No_state

type t = {
  mutable clock : Time.t;
  q : Wheel.t; (* queue ids: see [queued] *)
  mutable in_run : bool; (* inside the run loop: [~sent] is refused *)
  mutable live : int; (* scheduled, not yet fired, not cancelled *)
  mutable executed : int;
  mutable next_uid : int;
  (* self-profiling: per-event-class execution counts, queue-depth
     high-water mark and handle-reuse stats. Plain int stores, cheap
     enough to keep on unconditionally. *)
  exec_by_class : int array; (* indexed by handle class *)
  mutable heap_hwm : int;
  mutable cancels : int;
  (* typed event table: per-class executors and their state... *)
  exec_fn : (user -> int -> int -> unit) array;
  exec_st : user array;
  (* ...the handle pool behind [post] (slot-indexed, LIFO free list)... *)
  mutable pool : handle array;
  mutable pool_len : int;
  mutable free : int array;
  mutable free_len : int;
  (* ...the ids closure handles borrow while queued (id [c] is queued as
     [lnot c]; LIFO free list)... *)
  mutable cq : handle array;
  mutable cq_len : int;
  mutable cfree : int array;
  mutable cfree_len : int;
  (* ...and the one callback the batched drain fires entries through,
     preallocated so the drain itself allocates and stores nothing. *)
  mutable fire_cb : int -> unit;
  tap : Tap.t; (* the sim's observation tap *)
}

and handle = {
  owner : t;
  mutable cls : int; (* 0 one-shot, 1 reusable, 2 ticker, 3+ typed *)
  mutable alive : bool;
  mutable fired : bool;
  mutable fn : unit -> unit;
  mutable a0 : int; (* typed classes: immediate args *)
  mutable a1 : int;
  mutable gen : int; (* typed classes: token generation, >= 1 *)
  slot : int; (* pool slot, or -1 for closure handles *)
}

type ticker = { mutable running : bool; tick_handle : handle }

let cls_one_shot = 0

let cls_reusable = 1

let cls_ticker = 2

(* Typed event classes. The ids are engine-reserved names so call sites
   across libraries agree without a central registry; they are not part
   of the rank and never affect ordering. *)
let cls_port_tx = 3

let cls_delivery = 4

let cls_switch_ctrl = 5

let cls_nic_ctrl = 6

let cls_flow_timeout = 7

let cls_pdes_barrier = 8

let cls_xpass_resume = 9

let cls_flow_start = 10

let cls_flow_reclaim = 11

let n_classes = 16

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

let noop_fn () = ()

let unregistered_exec (_ : user) (_ : int) (_ : int) =
  invalid_arg "Sim: event posted to an unregistered class"

let grow_ints a len =
  let na = Array.make (Int.max 16 (2 * len)) 0 in
  Array.blit a 0 na 0 len;
  na

(* Return a fired or purged pooled handle's slot to the free list. Only
   called at queue-disposal points (see the lifecycle comment up top). *)
let free_slot t h =
  if t.free_len = Array.length t.free then t.free <- grow_ints t.free t.free_len;
  Array.unsafe_set t.free t.free_len h.slot;
  t.free_len <- t.free_len + 1

(* Lend closure handle [h] a queue id. *)
let borrow_id t h =
  let c =
    if t.cfree_len > 0 then begin
      t.cfree_len <- t.cfree_len - 1;
      Array.unsafe_get t.cfree t.cfree_len
    end
    else begin
      let c = t.cq_len in
      if c = Array.length t.cq then begin
        let ncq = Array.make (Int.max 16 (2 * c)) h in
        Array.blit t.cq 0 ncq 0 c;
        t.cq <- ncq
      end;
      t.cq_len <- c + 1;
      c
    end
  in
  Array.unsafe_set t.cq c h;
  lnot c

(* The handle behind a queue id. *)
let queued t id = if id >= 0 then Array.unsafe_get t.pool id else Array.unsafe_get t.cq (lnot id)

(* The queue is done with entry [id] (popped or purged): a closure id goes
   back to its free list. Its [cq] slot keeps the handle until the id is
   lent again (a fired one-shot has already dropped its closure). *)
let return_id t id =
  if id < 0 then begin
    if t.cfree_len = Array.length t.cfree then t.cfree <- grow_ints t.cfree t.cfree_len;
    Array.unsafe_set t.cfree t.cfree_len (lnot id);
    t.cfree_len <- t.cfree_len + 1
  end

(* Disposal of a dead entry (popped tombstone or purge): pooled handles go
   back to the free list ([gen] was already bumped when the token was
   cancelled), closure ids to theirs. *)
let dispose t id = if id >= 0 then free_slot t (Array.unsafe_get t.pool id) else return_id t id

(* Fire one live handle: the direct-match dispatch point. Closure
   classes call through [fn]; typed classes index the executor table
   and then return their pooled handle. The generation bump comes after
   the executor runs, so [token_pending] on the firing event's own
   token already answers false (fired is set) without the executor
   observing a recycled slot. *)
let fire t h =
  h.fired <- true;
  t.live <- t.live - 1;
  t.executed <- t.executed + 1;
  let c = h.cls in
  t.exec_by_class.(c) <- t.exec_by_class.(c) + 1;
  if c <= cls_ticker then begin
    h.fn ();
    (* A fired one-shot never runs again; drop the closure so recycled
       queue slots that still point at the handle can't keep whatever
       it captured (often a flow's transport state) alive. *)
    if c = cls_one_shot then h.fn <- noop_fn
  end
  else begin
    (Array.unsafe_get t.exec_fn c) (Array.unsafe_get t.exec_st c) h.a0 h.a1;
    h.gen <- h.gen + 1;
    free_slot t h
  end

(* Pop-side handling of queue entry [id]: fire it if live, dispose of it
   otherwise. A closure id is returned before its handle fires, so the
   handle may re-queue itself (a ticker) under a fresh id. *)
let fire_id t id =
  let h = queued t id in
  if id < 0 then return_id t id;
  if h.alive && not h.fired then fire t h else if id >= 0 then free_slot t h

let create () =
  (* the wheel's purge hooks read the sim's id tables; [self] ties the
     knot. The release hook reclaims purged tombstones' ids — without it
     a cancelled event whose entry cascades to its death would leak its
     pool slot or closure id forever. *)
  let self = ref None in
  let q =
    Wheel.create
      ~garbage:(fun id -> match !self with Some t -> not (queued t id).alive | None -> false)
      ~release:(fun id -> match !self with Some t -> dispose t id | None -> ())
      ()
  in
  let t =
    {
      clock = 0;
      q;
      in_run = false;
      live = 0;
      executed = 0;
      next_uid = 0;
      exec_by_class = Array.make n_classes 0;
      heap_hwm = 0;
      cancels = 0;
      exec_fn = Array.make n_classes unregistered_exec;
      exec_st = Array.make n_classes No_state;
      pool = [||];
      pool_len = 0;
      free = [||];
      free_len = 0;
      cq = [||];
      cq_len = 0;
      cfree = [||];
      cfree_len = 0;
      fire_cb = ignore;
      tap = Tap.create ();
    }
  in
  let sentinel =
    { owner = t; cls = cls_one_shot; alive = false; fired = true; fn = noop_fn;
      a0 = 0; a1 = 0; gen = 0; slot = -1 }
  in
  t.pool <- Array.make 16 sentinel;
  t.fire_cb <- (fun id -> fire_id t id);
  self := Some t;
  t

let now t = t.clock

let tap t = t.tap

let fresh_uid t =
  let u = t.next_uid in
  t.next_uid <- u + 1;
  u

(* Queue-depth high-water mark, maintained at every push point. *)
let note_depth t =
  let d = Wheel.length t.q in
  if d > t.heap_hwm then t.heap_hwm <- d

(* Rank packing: (insertion clock | canonical key). The clock gets the
   63 - 1 - [key_bits] = 42 bits below the sign bit, so [horizon] =
   2^42 ns (about 73 minutes of virtual time): at the horizon the shift
   reaches the sign bit and ranks, and the run loop's rank bound, would
   go negative and mis-order events. Every push point and [run ~until]
   refuse times at or beyond it. *)
let key_bits = 20

let key_mask = (1 lsl key_bits) - 1

let horizon = 1 lsl (Sys.int_size - 1 - key_bits)

let rank_of ~clock ~key = (clock lsl key_bits) lor (key land key_mask)

(* [time] is schedulable iff clock <= time < horizon. Both differences
   are non-negative exactly then, so one sign test of their [lor] makes
   the whole check a single branch on the hot path; [bad_time] sorts
   out which bound failed. (Overflow cannot flip a failing case into a
   passing one: a [time] negative enough to wrap [time - clock] wraps
   [horizon - 1 - time] negative.) *)
let[@inline] unschedulable t time = (time - t.clock) lor (horizon - 1 - time) < 0

let bad_time who t time =
  if time < t.clock then
    invalid_arg (Printf.sprintf "Sim.%s: scheduling in the past (%d < %d)" who time t.clock)
  else
    invalid_arg
      (Printf.sprintf "Sim.%s: time %d at or beyond the rank-clock horizon %d" who time horizon)

(* Rank of a [~sent] insertion, validated before anything is queued:
   legal only between [run] calls (see the header comment), and only for
   a send time in [0, clock]. *)
let sent_rank who t ~sent ~key =
  if t.in_run then
    invalid_arg (Printf.sprintf "Sim.%s: ~sent from inside an executing event" who);
  if sent < 0 || sent > t.clock then
    invalid_arg (Printf.sprintf "Sim.%s: ~sent out of range (%d, clock %d)" who sent t.clock);
  rank_of ~clock:sent ~key

let at ?sent ?(key = key_mask) t time fn =
  if unschedulable t time then bad_time "at" t time;
  let h =
    { owner = t; cls = cls_one_shot; alive = true; fired = false; fn;
      a0 = 0; a1 = 0; gen = 0; slot = -1 }
  in
  (match sent with
  | None -> Wheel.push t.q ~priority:time ~rank:(rank_of ~clock:t.clock ~key) (borrow_id t h)
  | Some s ->
    let rank = sent_rank "at" t ~sent:s ~key in
    Wheel.push_late t.q ~priority:time ~rank (borrow_id t h));
  note_depth t;
  t.live <- t.live + 1;
  h

let after ?key t delay fn = at ?key t (t.clock + Int.max 0 delay) fn

(* ------------------------- typed event posts ------------------------ *)

let register_class t ~cls ~state ~exec =
  if cls <= cls_ticker || cls >= n_classes then
    invalid_arg (Printf.sprintf "Sim.register_class: class %d out of range" cls);
  t.exec_fn.(cls) <- exec;
  t.exec_st.(cls) <- state

let class_state t ~cls =
  if cls > cls_ticker && cls < n_classes && t.exec_fn.(cls) != unregistered_exec then
    Some t.exec_st.(cls)
  else None

(* Token packing: slot in the high bits, generation (always >= 1, and
   bounded by slot executions + cancellations <= safety_cap < 2^31) in
   the low 31 — so 0 never names a live event and callers can use it as
   "none" in a bare mutable int field. *)
type token = int

let gen_bits = 31

let gen_mask = (1 lsl gen_bits) - 1

let token_of h = (h.slot lsl gen_bits) lor (h.gen land gen_mask)

let alloc_pooled t =
  if t.free_len > 0 then begin
    t.free_len <- t.free_len - 1;
    Array.unsafe_get t.pool (Array.unsafe_get t.free t.free_len)
  end
  else begin
    let slot = t.pool_len in
    if slot = Array.length t.pool then begin
      let ncap = 2 * slot in
      let np = Array.make ncap (Array.unsafe_get t.pool 0) in
      Array.blit t.pool 0 np 0 slot;
      t.pool <- np
    end;
    let h =
      { owner = t; cls = cls_one_shot; alive = false; fired = false; fn = noop_fn;
        a0 = 0; a1 = 0; gen = 1; slot }
    in
    t.pool.(slot) <- h;
    t.pool_len <- slot + 1;
    h
  end

let arm_typed h ~cls ~a0 ~a1 =
  h.cls <- cls;
  h.a0 <- a0;
  h.a1 <- a1;
  h.alive <- true;
  h.fired <- false;
  h

(* The [~sent] rank is computed before the handle leaves the free list,
   so a refused insertion leaks no pool slot. *)
let post_handle ?sent ?(key = key_mask) t time ~cls ~a0 ~a1 =
  if unschedulable t time then bad_time "post" t time;
  if cls <= cls_ticker || cls >= n_classes then
    invalid_arg (Printf.sprintf "Sim.post: class %d out of range" cls);
  let h =
    match sent with
    | None ->
      let h = arm_typed (alloc_pooled t) ~cls ~a0 ~a1 in
      Wheel.push t.q ~priority:time ~rank:(rank_of ~clock:t.clock ~key) h.slot;
      h
    | Some s ->
      let rank = sent_rank "post" t ~sent:s ~key in
      let h = arm_typed (alloc_pooled t) ~cls ~a0 ~a1 in
      Wheel.push_late t.q ~priority:time ~rank h.slot;
      h
  in
  note_depth t;
  t.live <- t.live + 1;
  h

let post ?sent ?key t time ~cls ~a0 ~a1 =
  ignore (post_handle ?sent ?key t time ~cls ~a0 ~a1)

let post_token ?sent ?key t time ~cls ~a0 ~a1 =
  token_of (post_handle ?sent ?key t time ~cls ~a0 ~a1)

let token_pending t token =
  token <> 0
  &&
  let slot = token lsr gen_bits in
  slot < t.pool_len
  &&
  let h = Array.unsafe_get t.pool slot in
  h.gen land gen_mask = token land gen_mask && h.alive && not h.fired

let cancel_token t token =
  if token <> 0 then begin
    let slot = token lsr gen_bits in
    if slot < t.pool_len then begin
      let h = Array.unsafe_get t.pool slot in
      if h.gen land gen_mask = token land gen_mask && h.alive && not h.fired then begin
        (* tombstone only: the queue entry still references the slot,
           so it is reclaimed when the entry pops or is purged *)
        h.alive <- false;
        h.gen <- h.gen + 1;
        t.live <- t.live - 1;
        t.cancels <- t.cancels + 1
      end
    end
  end

(* Cancellation only tombstones the queue entry (the wheel does not
   support removal from the middle), but the closure is dropped eagerly:
   it may be the only thing keeping whatever it captured alive, and the
   stale entry can outlive the whole run. *)
let cancel h =
  if h.alive && not h.fired then begin
    h.alive <- false;
    h.fn <- noop_fn;
    h.owner.live <- h.owner.live - 1;
    h.owner.cancels <- h.owner.cancels + 1
  end

let pending h = h.alive && not h.fired

(* The ticker owns a single handle for its whole life: after each tick it
   resets [fired] and pushes the same handle back, so a steady-state ticker
   allocates nothing per period. [stop_ticker] can then cancel the armed
   handle outright instead of leaving a live closure in the queue until its
   deadline. *)
let every t ~period fn =
  let arm h =
    let time = t.clock + period in
    if unschedulable t time then bad_time "every" t time;
    Wheel.push t.q ~priority:time ~rank:(rank_of ~clock:t.clock ~key:key_mask) (borrow_id t h);
    note_depth t;
    t.live <- t.live + 1
  in
  let rec tick = { running = true; tick_handle = h }
  and h =
    {
      owner = t;
      cls = cls_ticker;
      alive = true;
      fired = false;
      fn =
        (fun () ->
          if tick.running then begin
            fn ();
            if tick.running then begin
              h.fired <- false;
              arm h
            end
          end);
      a0 = 0;
      a1 = 0;
      gen = 0;
      slot = -1;
    }
  in
  arm h;
  tick

let stop_ticker tick =
  if tick.running then begin
    tick.running <- false;
    cancel tick.tick_handle
  end

let safety_cap = 1 lsl 30

exception Runaway of { now : Time.t; pending_events : int }

let () =
  Printexc.register_printer (function
    | Runaway { now; pending_events } ->
      Some
        (Printf.sprintf "Sim.Runaway (event cap exceeded at t=%dns with %d pending events)" now
           pending_events)
    | _ -> None)

(* Pop and fire the single head entry, if any. *)
let step t =
  let time = Wheel.head_time t.q in
  if time >= 0 then begin
    let id = Wheel.pop_min_exn t.q in
    t.clock <- time;
    fire_id t id
  end

(* The one run loop behind [run] and [run_until_idle]: execute the
   same-instant batch at each head deadline up to [until], raising
   [Runaway] once more than [cap] events have run. [Wheel.drain_run]'s
   rank bound admits only entries inserted at strictly earlier clocks
   (see the header comment for why that makes the drain order-exact),
   and the drain is non-empty whenever the head deadline is [time], so
   the clock advances before the first callback; the n = 0 fallback to
   a single pop only guards that invariant. [in_run] is up for the
   duration (and cleared on exceptions too) so [~sent] insertions from
   inside an event are refused. *)
let drain t ~until ~cap =
  let start = t.executed in
  t.in_run <- true;
  match
    let continue = ref true in
    while !continue do
      let time = Wheel.head_time t.q in
      if time < 0 || time > until then continue := false
      else begin
        t.clock <- time;
        if Wheel.drain_run t.q ~time ~rank_bound:(time lsl key_bits) t.fire_cb = 0 then
          step t;
        if t.executed - start > cap then raise (Runaway { now = t.clock; pending_events = t.live })
      end
    done
  with
  | () ->
    t.in_run <- false;
    t.executed - start
  | exception e ->
    t.in_run <- false;
    raise e

let run t ~until =
  if until >= horizon then bad_time "run" t until;
  let executed = drain t ~until ~cap:max_int in
  if t.clock < until then t.clock <- until;
  executed

let run_until_idle ?(cap = safety_cap) t = drain t ~until:max_int ~cap

(* Head-entry deadline, tombstones included: a cancelled head reports its
   stale time, which is <= the first live deadline — callers using this as
   a horizon bound (the PDES window coordinator) only get a conservative
   (smaller) window out of that, never a wrong one. *)
let next_time t = Wheel.head_time t.q

let pending_events t = t.live

let executed_events t = t.executed

let profile t =
  let typed = ref 0 in
  for c = cls_ticker + 1 to n_classes - 1 do
    typed := !typed + t.exec_by_class.(c)
  done;
  {
    p_one_shot = t.exec_by_class.(cls_one_shot);
    p_reusable = t.exec_by_class.(cls_reusable);
    p_ticker = t.exec_by_class.(cls_ticker);
    p_typed = !typed;
    p_heap_hwm = t.heap_hwm;
    p_heap_capacity = Wheel.capacity t.q;
    p_cancels = t.cancels;
    p_executed = t.executed;
    p_live = t.live;
  }
