type policy = Drr | Srf | Prio_strict

(* One class's candidate ring: a FIFO of queues that may be servable.
   [in_ring] keeps every queue in at most one slot, so a fixed capacity of
   the class's queue count never overflows. *)
type ring = { slots : Fifo.t array; mutable rh : int; mutable rn : int }

type t = {
  policy : policy;
  queues : Fifo.t array;
  classes : int;
  quantum : int;
  rings : ring array; (* one candidate ring per class *)
  mutable nonempty : int;
  mutable nonempty_paused : int;
  mutable served : Fifo.t; (* result registers of the last successful [take] *)
  mutable taken : Bfc_net.Packet.t;
}

let create policy ~queues ~classes ~quantum =
  if classes <= 0 then invalid_arg "Sched.create: classes";
  let placeholder = Fifo.create ~idx:(-1) ~cls:(-1) in
  let per_class = Array.make classes 0 in
  Array.iter (fun q -> per_class.(q.Fifo.cls) <- per_class.(q.Fifo.cls) + 1) queues;
  {
    policy;
    queues;
    classes;
    quantum;
    rings =
      Array.map (fun n -> { slots = Array.make n placeholder; rh = 0; rn = 0 }) per_class;
    nonempty = 0;
    nonempty_paused = 0;
    served = placeholder;
    taken = Bfc_net.Packet.placeholder;
  }

let policy t = t.policy

let ring_add r q =
  let cap = Array.length r.slots in
  if r.rn = cap then invalid_arg "Sched: queue not created with this scheduler";
  let i = r.rh + r.rn in
  Array.unsafe_set r.slots (if i >= cap then i - cap else i) q;
  r.rn <- r.rn + 1

let ring_pop r =
  let q = Array.unsafe_get r.slots r.rh in
  r.rh <- (if r.rh + 1 = Array.length r.slots then 0 else r.rh + 1);
  r.rn <- r.rn - 1;
  q

let eligible q = (not (Fifo.is_empty q)) && not q.Fifo.paused

let activate t q =
  if (not q.Fifo.in_ring) && eligible q then begin
    q.Fifo.in_ring <- true;
    ring_add t.rings.(q.Fifo.cls) q
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
let evict_front r = (ring_pop r).Fifo.in_ring <- false

let serve t q =
  let pkt = Fifo.pop q in
  note_popped t q;
  t.served <- q;
  t.taken <- pkt

let take_drr t r =
  (* Serve the front queue if its deficit covers the head packet, otherwise
     top up its deficit and rotate. Bounded: each queue is visited at most
     twice per call because the quantum covers a full-size packet. *)
  let budget = ref ((2 * r.rn) + 2) in
  let found = ref false in
  while (not !found) && r.rn > 0 && !budget > 0 do
    decr budget;
    let q = Array.unsafe_get r.slots r.rh in
    (* eligible implies non-empty, so the head peek cannot raise *)
    if not (eligible q) then evict_front r
    else begin
      let size = (Fifo.peek_exn q).Bfc_net.Packet.size in
      if q.Fifo.deficit >= size then begin
        q.Fifo.deficit <- q.Fifo.deficit - size;
        serve t q;
        if Fifo.is_empty q then evict_front r;
        found := true
      end
      else begin
        q.Fifo.deficit <- q.Fifo.deficit + t.quantum;
        ring_add r (ring_pop r)
      end
    end
  done;
  !found

let take_scan t r ~better =
  (* Scan the whole ring, evicting stale entries, keeping the best eligible
     queue per [better]; used for SRF and strict priority. *)
  let best = ref t.served and found = ref false in
  for _ = 1 to r.rn do
    let q = ring_pop r in
    if eligible q then begin
      ring_add r q;
      if (not !found) || better q !best then begin
        best := q;
        found := true
      end
    end
    else q.Fifo.in_ring <- false
  done;
  if !found then serve t !best;
  !found

let shorter_remaining a b = Fifo.head_remaining a < Fifo.head_remaining b

let lower_index a b = a.Fifo.idx < b.Fifo.idx

let rec take_from t c =
  c < t.classes
  &&
  let r = Array.unsafe_get t.rings c in
  (r.rn > 0
  &&
  match t.policy with
  | Drr -> take_drr t r
  | Srf -> take_scan t r ~better:shorter_remaining
  | Prio_strict -> take_scan t r ~better:lower_index)
  || take_from t (c + 1)

let take t = take_from t 0

let served t = t.served

let taken t = t.taken

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

let iter_backlogged t f =
  Array.iter (fun q -> if not (Fifo.is_empty q) then f q) t.queues
