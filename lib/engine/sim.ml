(* The pending-event queue is the hierarchical timing wheel
   ([Bfc_util.Wheel], amortized O(1) on the engine's event mix, which is
   dominated by short-horizon rearms). It orders entries by strict
   (time, rank, insertion-seq).

   The rank packs two components: the clock at the moment of insertion
   (high bits) and a caller-supplied canonical key (low [key_bits] bits,
   default [key_mask]). The clock is monotone, so for events inserted at
   different instants the order is exactly the classic (time, insertion
   order). [post]'s [~key] (ports pass their gid when scheduling deliveries)
   breaks ties between insertions at the same (time, clock) by a
   physical identity instead of the insertion interleaving: port
   deliveries sort by source gid, ahead of same-instant unkeyed events.
   The reordering has no physical meaning; it stays because every
   recorded fixture and benchmark digest was produced under it, and
   dropping it would reorder same-instant events and rewrite them all.

   Event representation. An event is its wheel record: the wheel
   stores a class id and two int args ([cls], [a0], [a1]) in every
   entry, and the run loop fires straight from the record it just
   unlinked. The class selects how the event fires:

   - classes 0–2 (closure one-shot / reusable / ticker) run a
     [unit -> unit] closure — the original representation, kept for the
     control plane behind [at]/[after]/[every] (nothing schedules the
     reusable class any more; its profile count reads 0);
   - classes 3+ are typed: [a0] and [a1] are immediate args for a
     per-class executor registered once per (sim, class) with
     [register_class]. [post] writes them into the record it pushes, so
     the steady-state hot path (deliveries, watchdogs, RTOs, pacers)
     allocates nothing per event and dispatches through one
     array-indexed call to a single shared executor per class, instead
     of an indirect call to one of thousands of short-lived closures.
     Per-flow work (flow start, state reclaim, transport timers) is
     typed too.

   Closure ids. The wheel holds ints, not closures, so no store into it
   takes the write barrier: a closure event's [handle] borrows an id
   from a table ([cq]) for as long as it is queued, stored in the
   record's [a0], and the id goes back to its free list when the entry
   pops or is removed. The handle record a caller holds is never
   reused, so a stale handle cannot reach whichever event later borrows
   its id: [cancel] reads the handle, never the id.

   Lifecycle: every queue entry is a live event. Firing pops the entry;
   cancelling ([cancel], [cancel_token]) removes it from the wheel in
   O(1). Either way the record and any closure id are free again at
   once. A typed event's token is its record's offset and the record's
   generation, which the wheel bumps whenever the record leaves the
   wheel, so a token dies when its event fires or is cancelled. Offsets
   lie past the wheel's sentinels, so a token is never 0. A stale token
   could only match again after its record left the wheel a multiple of
   2^31 times, which the [safety_cap] of 2^30 events per run rules out
   within one run.

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
   head probe and cursor repositioning. Every push ranks at the current
   clock, so no insertion can fall below the bound. See DESIGN.md §16
   for the proof obligation. *)

module Wheel = Bfc_util.Wheel

(* Per-class executor state: each subsystem extends this with its own
   constructor (a registry of ports, switches, flows...) so executors
   get their targets by int index without the sim depending on any of
   them. *)
type user = ..

type user += No_state

type t = {
  mutable clock : Time.t;
  q : Wheel.t; (* the events themselves: see the header comment *)
  mutable live : int; (* scheduled, not yet fired, not cancelled *)
  mutable executed : int;
  (* self-profiling: per-event-class execution counts, queue-depth
     high-water mark and cancellations. Plain int stores, cheap enough
     to keep on unconditionally. *)
  exec_by_class : int array; (* indexed by event class *)
  mutable heap_hwm : int;
  mutable cancels : int;
  (* typed event table: per-class executors and their state... *)
  exec_fn : (user -> int -> int -> unit) array;
  exec_st : user array;
  (* ...the ids closure handles borrow while queued (LIFO free list)... *)
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
  mutable alive : bool;
  mutable fired : bool;
  mutable fn : unit -> unit;
  mutable entry : int; (* wheel entry while queued *)
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
  c

(* The queue is done with closure id [c] (popped or removed): it goes
   back to its free list. Its [cq] slot keeps the handle until the id is
   lent again (a fired one-shot has already dropped its closure). *)
let return_id t c =
  if t.cfree_len = Array.length t.cfree then t.cfree <- grow_ints t.cfree t.cfree_len;
  Array.unsafe_set t.cfree t.cfree_len c;
  t.cfree_len <- t.cfree_len + 1

(* Fire record [e], which the wheel has just unlinked: the dispatch
   point. The payload is read before anything runs, since whatever runs
   may push into the freed record. Typed classes index the executor
   table; closure classes look up their handle by the id in [a0] and
   return the id before the closure runs, so a ticker can re-queue
   itself under a fresh one. The record left the wheel with its
   generation bumped, so [token_pending] on the firing event's own
   token already answers false. *)
let fire t e =
  let q = t.q in
  let c = Wheel.cls q e and a0 = Wheel.a0 q e in
  t.live <- t.live - 1;
  t.executed <- t.executed + 1;
  Array.unsafe_set t.exec_by_class c (Array.unsafe_get t.exec_by_class c + 1);
  if c > cls_ticker then
    (Array.unsafe_get t.exec_fn c) (Array.unsafe_get t.exec_st c) a0 (Wheel.a1 q e)
  else begin
    let h = Array.unsafe_get t.cq a0 in
    return_id t a0;
    h.fired <- true;
    h.fn ();
    (* A fired one-shot never runs again; drop the closure so recycled
       queue slots that still point at the handle can't keep whatever
       it captured (often a flow's transport state) alive. *)
    if c = cls_one_shot then h.fn <- noop_fn
  end

let create () =
  let t =
    {
      clock = 0;
      q = Wheel.create ();
      live = 0;
      executed = 0;
      exec_by_class = Array.make n_classes 0;
      heap_hwm = 0;
      cancels = 0;
      exec_fn = Array.make n_classes unregistered_exec;
      exec_st = Array.make n_classes No_state;
      cq = [||];
      cq_len = 0;
      cfree = [||];
      cfree_len = 0;
      fire_cb = ignore;
      tap = Tap.create ();
    }
  in
  t.fire_cb <- (fun e -> fire t e);
  t

let now t = t.clock

let tap t = t.tap

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

let at t time fn =
  if unschedulable t time then bad_time "at" t time;
  let h = { owner = t; alive = true; fired = false; fn; entry = -1 } in
  h.entry <-
    Wheel.push t.q ~priority:time ~rank:(rank_of ~clock:t.clock ~key:key_mask) ~cls:cls_one_shot
      ~a0:(borrow_id t h) ~a1:0;
  note_depth t;
  t.live <- t.live + 1;
  h

let after t delay fn = at t (t.clock + Int.max 0 delay) fn

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

(* Token packing: the event's record offset in the high bits, its
   generation's low 31 bits in the low ones. Offsets start past the
   wheel's sentinels, so 0 never names an event and callers can use it
   as "none" in a bare mutable int field. *)
type token = int

let gen_bits = 31

let gen_mask = (1 lsl gen_bits) - 1

let push_typed t time ~key ~cls ~a0 ~a1 =
  if unschedulable t time then bad_time "post" t time;
  if cls <= cls_ticker || cls >= n_classes then
    invalid_arg (Printf.sprintf "Sim.post: class %d out of range" cls);
  let e = Wheel.push t.q ~priority:time ~rank:(rank_of ~clock:t.clock ~key) ~cls ~a0 ~a1 in
  note_depth t;
  t.live <- t.live + 1;
  (e lsl gen_bits) lor (Wheel.gen t.q e land gen_mask)

let post ?(key = key_mask) t time ~cls ~a0 ~a1 =
  ignore (push_typed t time ~key ~cls ~a0 ~a1 : token)

let post_token t time ~cls ~a0 ~a1 = push_typed t time ~key:key_mask ~cls ~a0 ~a1

(* The wheel vets the token's offset before reading anything (range,
   sentinel region, alignment, residency), so a garbage token reads
   nothing out of bounds; the generation then tells the token's event
   from a later one in the same record, and the class keeps a foreign
   token off closure events. *)
let token_pending t token =
  let e = token lsr gen_bits in
  Wheel.resident t.q e
  && Wheel.gen t.q e land gen_mask = token land gen_mask
  && Wheel.cls t.q e > cls_ticker

let cancel_token t token =
  if token_pending t token then begin
    Wheel.remove t.q (token lsr gen_bits);
    t.live <- t.live - 1;
    t.cancels <- t.cancels + 1
  end

(* The closure is dropped as well: the caller may keep the handle, and
   the closure may be the only thing keeping whatever it captured
   alive. *)
let cancel h =
  if h.alive && not h.fired then begin
    let t = h.owner in
    Wheel.remove t.q h.entry;
    return_id t (Wheel.a0 t.q h.entry);
    h.alive <- false;
    h.fn <- noop_fn;
    t.live <- t.live - 1;
    t.cancels <- t.cancels + 1
  end

(* The ticker owns a single handle for its whole life: after each tick it
   resets [fired] and pushes the same handle back, so a steady-state ticker
   allocates nothing per period. [stop_ticker] can then cancel the armed
   handle outright instead of leaving a live closure in the queue until its
   deadline. *)
let every t ~period fn =
  let arm h =
    let time = t.clock + period in
    if unschedulable t time then bad_time "every" t time;
    h.entry <-
      Wheel.push t.q ~priority:time ~rank:(rank_of ~clock:t.clock ~key:key_mask) ~cls:cls_ticker
        ~a0:(borrow_id t h) ~a1:0;
    note_depth t;
    t.live <- t.live + 1
  in
  let rec tick = { running = true; tick_handle = h }
  and h =
    {
      owner = t;
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
      entry = -1;
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
    let e = Wheel.pop_min_exn t.q in
    t.clock <- time;
    fire t e
  end

(* The one run loop behind [run] and [run_until_idle]: execute the
   same-instant batch at each head deadline up to [until], raising
   [Runaway] once more than [cap] events have run. [Wheel.drain_run]'s
   rank bound admits only entries inserted at strictly earlier clocks
   (see the header comment for why that makes the drain order-exact),
   and the drain is non-empty whenever the head deadline is [time], so
   the clock advances before the first callback; the n = 0 fallback to
   a single pop only guards that invariant. *)
let drain t ~until ~cap =
  let start = t.executed in
  let continue = ref true in
  while !continue do
    let time = Wheel.head_time t.q in
    if time < 0 || time > until then continue := false
    else begin
      t.clock <- time;
      if Wheel.drain_run t.q ~time ~rank_bound:(time lsl key_bits) t.fire_cb = 0 then step t;
      if t.executed - start > cap then raise (Runaway { now = t.clock; pending_events = t.live })
    end
  done;
  t.executed - start

let run t ~until =
  if until >= horizon then bad_time "run" t until;
  let executed = drain t ~until ~cap:max_int in
  if t.clock < until then t.clock <- until;
  executed

let run_until_idle ?(cap = safety_cap) t = drain t ~until:max_int ~cap

let pending_events t = t.live

let reserve t n = Wheel.reserve t.q n

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
