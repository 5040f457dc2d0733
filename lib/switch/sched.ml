type policy = Drr | Srf | Prio_strict

module Packet = Bfc_net.Packet

(* One class's candidate ring: a FIFO of queues that may be servable, by
   index into [queues]. [in_ring] keeps every queue in at most one slot,
   so a fixed capacity of the class's queue count never overflows. *)
type ring = { slots : int array; mutable rh : int; mutable rn : int }

type t = {
  policy : policy;
  queues : Fifo.t array; (* queue [i] has [Fifo.idx = i] *)
  classes : int;
  quantum : int;
  rings : ring array; (* one candidate ring per class *)
  mutable nonempty : int;
  mutable nonempty_paused : int;
  mutable served : int; (* queue of the last successful [take] *)
}

let create policy ~queues ~classes ~quantum =
  if classes <= 0 then invalid_arg "Sched.create: classes";
  Array.iteri
    (fun i q -> if q.Fifo.idx <> i then invalid_arg "Sched.create: queue idx <> position")
    queues;
  let per_class = Array.make classes 0 in
  Array.iter (fun q -> per_class.(q.Fifo.cls) <- per_class.(q.Fifo.cls) + 1) queues;
  {
    policy;
    queues;
    classes;
    quantum;
    rings = Array.map (fun n -> { slots = Array.make n 0; rh = 0; rn = 0 }) per_class;
    nonempty = 0;
    nonempty_paused = 0;
    served = 0;
  }

let ring_add r qi =
  let cap = Array.length r.slots in
  if r.rn = cap then invalid_arg "Sched: queue not created with this scheduler";
  let i = r.rh + r.rn in
  Array.unsafe_set r.slots (if i >= cap then i - cap else i) qi;
  r.rn <- r.rn + 1

let ring_pop r =
  let qi = Array.unsafe_get r.slots r.rh in
  r.rh <- (if r.rh + 1 = Array.length r.slots then 0 else r.rh + 1);
  r.rn <- r.rn - 1;
  qi

let eligible q = (not (Fifo.is_empty q)) && not q.Fifo.paused

let activate t q =
  if (not q.Fifo.in_ring) && eligible q then begin
    q.Fifo.in_ring <- true;
    ring_add t.rings.(q.Fifo.cls) q.Fifo.idx
  end

let push t q pkt =
  let was_empty = Fifo.is_empty q in
  Fifo.push q pkt;
  if was_empty then begin
    t.nonempty <- t.nonempty + 1;
    if q.Fifo.paused then t.nonempty_paused <- t.nonempty_paused + 1
  end;
  activate t q

let note_popped t q =
  if Fifo.is_empty q then begin
    t.nonempty <- t.nonempty - 1;
    if q.Fifo.paused then t.nonempty_paused <- t.nonempty_paused - 1;
    q.Fifo.deficit <- 0
  end

let set_paused t q paused =
  if q.Fifo.paused <> paused then begin
    q.Fifo.paused <- paused;
    if not (Fifo.is_empty q) then
      t.nonempty_paused <- (t.nonempty_paused + if paused then 1 else -1);
    if not paused then activate t q
  end

(* Evict the ring front (lazily removing stale candidates). *)
let evict_front t r = (Array.unsafe_get t.queues (ring_pop r)).Fifo.in_ring <- false

let serve t q =
  let pkt = Fifo.pop q in
  note_popped t q;
  t.served <- q.Fifo.idx;
  pkt

let take_drr t r =
  (* Serve the front queue if its deficit covers the head packet, otherwise
     top up its deficit and rotate. Bounded: each queue is visited at most
     twice per call because the quantum covers a full-size packet. *)
  let budget = ref ((2 * r.rn) + 2) in
  let got = ref Packet.placeholder in
  while !got == Packet.placeholder && r.rn > 0 && !budget > 0 do
    decr budget;
    let q = Array.unsafe_get t.queues (Array.unsafe_get r.slots r.rh) in
    (* eligible implies non-empty, so the head size is the packet's *)
    if not (eligible q) then evict_front t r
    else begin
      let size = Fifo.head_size q in
      if q.Fifo.deficit >= size then begin
        q.Fifo.deficit <- q.Fifo.deficit - size;
        got := serve t q;
        if Fifo.is_empty q then evict_front t r
      end
      else begin
        q.Fifo.deficit <- q.Fifo.deficit + t.quantum;
        ring_add r (ring_pop r)
      end
    end
  done;
  !got

let take_scan t r ~better =
  (* Scan the whole ring, evicting stale entries, keeping the best eligible
     queue per [better]; used for SRF and strict priority. *)
  let best = ref (-1) in
  for _ = 1 to r.rn do
    let qi = ring_pop r in
    let q = Array.unsafe_get t.queues qi in
    if eligible q then begin
      ring_add r qi;
      if !best < 0 || better q (Array.unsafe_get t.queues !best) then best := qi
    end
    else q.Fifo.in_ring <- false
  done;
  if !best < 0 then Packet.placeholder else serve t (Array.unsafe_get t.queues !best)

let shorter_remaining a b = Fifo.head_remaining a < Fifo.head_remaining b

let lower_index a b = a.Fifo.idx < b.Fifo.idx

let rec take_from t c =
  if c >= t.classes then Packet.placeholder
  else begin
    let r = Array.unsafe_get t.rings c in
    let pkt =
      if r.rn = 0 then Packet.placeholder
      else
        match t.policy with
        | Drr -> take_drr t r
        | Srf -> take_scan t r ~better:shorter_remaining
        | Prio_strict -> take_scan t r ~better:lower_index
    in
    if pkt == Packet.placeholder then take_from t (c + 1) else pkt
  end

let take t = take_from t 0

let served t = t.queues.(t.served)

let flush t f =
  Array.iter
    (fun q ->
      while not (Fifo.is_empty q) do
        f (Fifo.pop q)
      done;
      q.Fifo.paused <- false;
      q.Fifo.deficit <- 0;
      q.Fifo.in_ring <- false)
    t.queues;
  Array.iter
    (fun r ->
      r.rh <- 0;
      r.rn <- 0)
    t.rings;
  t.nonempty <- 0;
  t.nonempty_paused <- 0

let n_active t = t.nonempty - t.nonempty_paused

let n_backlogged t = t.nonempty
