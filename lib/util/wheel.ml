(* Hierarchical timing wheel (Varghese & Lauck), the simulator's event
   queue: almost every event is a short-horizon rearm (port wakeups,
   in-flight deliveries), which a binary heap pays O(log n) to push and
   pop while a wheel pays a digit split and a list append.

   Layout: [levels] wheels of [bsize] buckets each; level [l]'s buckets
   span [bsize^l] ticks, so the hierarchy covers the whole non-negative
   int range. An entry lives at the level of the most-significant base-
   [bsize] digit in which its deadline differs from the cursor ([wnow]);
   when the cursor enters a higher-level bucket the bucket cascades: its
   entries are re-dealt into the levels below. A level-0 bucket therefore
   holds entries of exactly one deadline.

   Ordering contract (what makes wheel runs byte-identical):
   pops come out in strict (time, rank, insertion-seq) order, where the
   rank is a caller-supplied secondary key. [push] requires
   ranks to be non-decreasing among same-time entries — free for the
   simulator, whose rank is its monotone clock — so no sorting is needed
   to maintain the order: same-time entries share every digit, so they
   sit in the same bucket at every level, are appended in push order, and
   cascades preserve bucket order. The one exception is a push below the
   cursor (legal down to the last popped time: [Sim.run ~until] can park
   the cursor on a far-future event and then admit new near-term work
   between runs); those are placed into the cursor bucket by an explicit
   sorted insert.

   Storage is one slab: a single int array of [stride]-word records
   (next, prev, time, rank, cls, a0, a1, gen) with a free list threaded
   through [next]. An entry's id is its record's offset in the slab. The
   slab opens with the buckets' sentinels, 2-word (next, prev) records:
   the links come first in every record, so the list code treats a
   sentinel and an entry alike. Each bucket is a circular doubly-linked
   list through its sentinel, so an empty bucket is a sentinel linked to
   itself. The slab is sized by the peak number of resident entries and
   only ever doubles; a cascade relinks records instead of copying them,
   and [remove] unlinks any entry in O(1), so a cancelled event leaves
   nothing behind.

   The record is the owner's event, not a pointer to one: [cls], [a0]
   and [a1] are its payload (Sim stores a typed event's class and
   arguments there), read straight from the record a pop or drain just
   unlinked. [gen] counts the times the record has left the wheel, so an
   owner can tell a record's current entry from an earlier one (Sim's
   tokens). Every field is an int, so no store into the slab takes the
   GC's write barrier. Offsets inside the walks come from links the
   wheel wrote itself, so they use unsafe accessors. *)

let bits = 8

let bsize = 1 lsl bits (* buckets per level *)

let bmask = bsize - 1

(* 8 levels x 8 bits = 64 bits: deadlines up to max_int are representable
   (digits above the top level are always zero for OCaml's 63-bit ints). *)
let levels = 8

(* Record layout: field offsets inside a [stride]-word record. An entry
   needs no insertion sequence number: list position is insertion order
   among equal (time, rank), and a new entry is always the latest. *)
let stride = 8

let f_next = 0

let f_prev = 1 (* -1 marks a record on the free list *)

let f_time = 2

let f_rank = 3

let f_cls = 4

let f_a0 = 5

let f_a1 = 6

let f_gen = 7

(* A sentinel is only the (next, prev) pair. *)
let sen_stride = 2

(* Offset of the first entry record: the sentinels come first. A
   multiple of [stride], so an entry's offset is too. *)
let entries_base = levels * bsize * sen_stride

type t = {
  mutable s : int array; (* the slab *)
  mutable free : int; (* first free record, or -1 *)
  mutable wnow : int; (* deadline of the bucket under the cursor *)
  mutable size : int; (* resident entries *)
}

exception Empty

let () =
  Printexc.register_printer (function
    | Empty -> Some "Wheel.Empty (pop on an empty wheel)"
    | _ -> None)

(* Thread records [from, length s) onto an empty free list, lowest offset
   first; returns the list head. *)
let thread_free s ~from =
  let last = Array.length s - stride in
  let o = ref from in
  while !o <= last do
    s.(!o + f_next) <- (if !o = last then -1 else !o + stride);
    s.(!o + f_prev) <- -1;
    o := !o + stride
  done;
  from

let create () =
  let s = Array.make (entries_base + (64 * stride)) 0 in
  for b = 0 to (levels * bsize) - 1 do
    let o = b * sen_stride in
    s.(o + f_next) <- o;
    s.(o + f_prev) <- o
  done;
  { s; free = thread_free s ~from:entries_base; wnow = 0; size = 0 }

let length t = t.size

let capacity t = (Array.length t.s - entries_base) / stride

(* Double the entry records [k] times in one copy; the new records go
   on the front of the free list. *)
let grow t k =
  let len = Array.length t.s in
  let s = Array.make (entries_base + ((len - entries_base) lsl k)) 0 in
  Array.blit t.s 0 s 0 len;
  let head = thread_free s ~from:len in
  s.(Array.length s - stride + f_next) <- t.free;
  t.free <- head;
  t.s <- s

(* The doublings that make room for [n] more resident entries, taken in
   one copy: a batch of [n] pushes then leaves one old slab behind
   instead of log n of them, and the capacity is the same as pushing
   one at a time would reach. *)
let reserve t n =
  let cap = capacity t in
  let rec doublings c k = if c >= t.size + n then k else doublings (c * 2) (k + 1) in
  let k = doublings cap 0 in
  if k > 0 then grow t k

(* Take a free record for a new resident entry and fill in its key and
   payload; the caller links it into a bucket. *)
let alloc t time rank cls a0 a1 =
  if t.free < 0 then grow t 1;
  let s = t.s in
  let e = t.free in
  t.free <- Array.unsafe_get s (e + f_next);
  Array.unsafe_set s (e + f_time) time;
  Array.unsafe_set s (e + f_rank) rank;
  Array.unsafe_set s (e + f_cls) cls;
  Array.unsafe_set s (e + f_a0) a0;
  Array.unsafe_set s (e + f_a1) a1;
  t.size <- t.size + 1;
  e

(* Insert record [e] right after record [p] of the same list. *)
let link_after s p e =
  let n = Array.unsafe_get s (p + f_next) in
  Array.unsafe_set s (e + f_prev) p;
  Array.unsafe_set s (e + f_next) n;
  Array.unsafe_set s (n + f_prev) e;
  Array.unsafe_set s (p + f_next) e

let unlink s e =
  let p = Array.unsafe_get s (e + f_prev) and n = Array.unsafe_get s (e + f_next) in
  Array.unsafe_set s (p + f_next) n;
  Array.unsafe_set s (n + f_prev) p

(* Unlink resident entry [e] and return its record to the free list,
   bumping its generation. The payload stays readable until a push
   reuses the record. *)
let take t e =
  let s = t.s in
  unlink s e;
  t.size <- t.size - 1;
  Array.unsafe_set s (e + f_next) t.free;
  Array.unsafe_set s (e + f_prev) (-1);
  Array.unsafe_set s (e + f_gen) (Array.unsafe_get s (e + f_gen) + 1);
  t.free <- e

(* The level of the most-significant base-[bsize] digit in which [time]
   and the cursor differ; 0 when they agree everywhere (time = wnow). *)
let level_for t time =
  let l = ref 0 in
  while
    !l < levels - 1 && time lsr ((!l + 1) * bits) <> t.wnow lsr ((!l + 1) * bits)
  do
    incr l
  done;
  !l

let sentinel l i = ((l lsl bits) lor i) * sen_stride

(* The sentinel of the bucket a deadline above the cursor belongs in. *)
let bucket_for t time =
  let l = level_for t time in
  sentinel l ((time lsr (l * bits)) land bmask)

let cursor_bucket t = (t.wnow land bmask) * sen_stride

(* Sorted insert for pushes at or below the cursor: walk back from the
   tail of the cursor bucket past every entry that sorts after (time,
   rank) — the new entry is the latest, so it sorts after every equal
   key. The cursor bucket is kept fully sorted by this same walk, so the
   stop condition lands the entry exactly: a monotone push (maximal
   rank) only moves past strictly-later deadlines — a push at the cursor
   time lands at the tail without moving at all — while an entry keyed
   below same-instant entries also moves past those of larger rank. *)
let insert_sorted t e time rank =
  let s = t.s in
  let sen = cursor_bucket t in
  let p = ref (Array.unsafe_get s (sen + f_prev)) in
  while
    !p <> sen
    &&
    let tp = Array.unsafe_get s (!p + f_time) in
    tp > time || (tp = time && Array.unsafe_get s (!p + f_rank) > rank)
  do
    p := Array.unsafe_get s (!p + f_prev)
  done;
  link_after s !p e

let push t ~rank ~priority:time ~cls ~a0 ~a1 =
  if time < 0 then invalid_arg "Wheel.push: negative priority";
  let e = alloc t time rank cls a0 a1 in
  if time <= t.wnow then
    (* cursor bucket: either exactly the cursor deadline, or the
       below-cursor staging case described in the header comment *)
    insert_sorted t e time rank
  else begin
    let s = t.s in
    let sen = bucket_for t time in
    (* Insert after the last entry of rank <= [rank], walking back from
       the tail. With fully monotone ranks this is the tail itself (one
       compare); the walk exists for the bounded disorder the simulator
       produces — pushes within one clock instant carry a canonical
       low-bits key, so a burst of same-instant pushes is not rank-sorted
       on arrival. Ranks across instants are monotone, so the walk never
       leaves the same-instant tail, and the bucket stays rank-sorted —
       which is what keeps same-deadline runs in (rank, seq) pop order. *)
    let p = ref (Array.unsafe_get s (sen + f_prev)) in
    while !p <> sen && Array.unsafe_get s (!p + f_rank) > rank do
      p := Array.unsafe_get s (!p + f_prev)
    done;
    link_after s !p e
  end;
  e

(* Any int may be asked about: the range and alignment tests come
   before the one read, so a garbage id never reads out of bounds. *)
let resident t e =
  e >= entries_base
  && e < Array.length t.s
  && e land (stride - 1) = 0
  && Array.unsafe_get t.s (e + f_prev) >= 0

let remove t e =
  if not (resident t e) then invalid_arg "Wheel.remove: not a resident entry";
  take t e

let cls t e = Array.unsafe_get t.s (e + f_cls)

let a0 t e = Array.unsafe_get t.s (e + f_a0)

let a1 t e = Array.unsafe_get t.s (e + f_a1)

let gen t e = Array.unsafe_get t.s (e + f_gen)

(* Re-deal a cascading bucket into the levels below, head first, so each
   target bucket receives the source's entries in source order, which
   keeps same-deadline runs in (rank, seq) order. The records are
   relinked, not copied. *)
let redistribute t src =
  let s = t.s in
  let e = ref (Array.unsafe_get s (src + f_next)) in
  Array.unsafe_set s (src + f_next) src;
  Array.unsafe_set s (src + f_prev) src;
  while !e <> src do
    let next = Array.unsafe_get s (!e + f_next) in
    let sen = bucket_for t (Array.unsafe_get s (!e + f_time)) in
    link_after s (Array.unsafe_get s (sen + f_prev)) !e;
    e := next
  done

(* Position the cursor on the next resident entry. Returns false when
   the wheel is empty. Each cascade strictly advances [wnow], so the
   mutual recursion is bounded by the number of levels. *)
let rec reposition t =
  if t.size = 0 then false
  else begin
    let s = t.s in
    let c = t.wnow land bmask in
    if Array.unsafe_get s (sentinel 0 c + f_next) <> sentinel 0 c then true
    else begin
      (* scan the rest of the level-0 window *)
      let i = ref (c + 1) in
      while !i < bsize && Array.unsafe_get s (sentinel 0 !i + f_next) = sentinel 0 !i do
        incr i
      done;
      if !i < bsize then begin
        t.wnow <- (t.wnow land lnot bmask) lor !i;
        true
      end
      else cascade t 1
    end
  end

and cascade t l =
  if l >= levels then false
  else begin
    let s = t.s in
    let i = ref (((t.wnow lsr (l * bits)) land bmask) + 1) in
    while !i < bsize && Array.unsafe_get s (sentinel l !i + f_next) = sentinel l !i do
      incr i
    done;
    if !i >= bsize then cascade t (l + 1)
    else begin
      let span = (l + 1) * bits in
      (* keep the digits above level l, set digit l, zero everything
         below (span >= 62 would shift past the int width; those digits
         are always zero for non-negative ints) *)
      let keep = if span >= 62 then 0 else t.wnow land lnot ((1 lsl span) - 1) in
      t.wnow <- keep lor (!i lsl (l * bits));
      redistribute t (sentinel l !i);
      reposition t
    end
  end

let head_time t =
  if reposition t then
    let s = t.s in
    Array.unsafe_get s (Array.unsafe_get s (cursor_bucket t + f_next) + f_time)
  else -1

let pop_min_exn t =
  if not (reposition t) then raise Empty
  else begin
    let e = Array.unsafe_get t.s (cursor_bucket t + f_next) in
    take t e;
    e
  end

(* Batched pop: one reposition, then a straight walk of the (sorted)
   cursor bucket, calling [f] on each drained entry. Drains the maximal
   leading run of entries at deadline [time] whose rank is strictly
   below [rank_bound]; when the head entry itself is at or above the
   bound, pops exactly that one entry. The caller (Sim's fused run
   loop) passes [time = head_time] and [rank_bound = time lsl key_bits]:
   entries below the bound were inserted at strictly earlier clocks, so
   nothing [f] executes can push ahead of them — same-time entries pop
   in non-decreasing rank order, so the eligible run is exactly a
   prefix. [f] may push or remove (the slab and the bucket head are
   re-read every iteration, and a same-instant push carries rank >= the
   bound, which ends the run) but must not pop. Each entry is unlinked
   and freed before [f] runs on it, and [f] gets the freed record, whose
   payload it must read before it pushes. The callback is the same value
   every call (Sim preallocates it), so the indirect call predicts
   perfectly. Returns the number of entries drained (0 only when the
   wheel is empty or the head moved off [time]). *)
let drain_run t ~time ~rank_bound f =
  if not (reposition t) then 0
  else begin
    let sen = cursor_bucket t in
    let n = ref 0 in
    let continue = ref true in
    while !continue do
      let s = t.s in
      let e = Array.unsafe_get s (sen + f_next) in
      if
        e <> sen
        && Array.unsafe_get s (e + f_time) = time
        && (!n = 0 || Array.unsafe_get s (e + f_rank) < rank_bound)
      then begin
        incr n;
        take t e;
        f e
      end
      else continue := false
    done;
    !n
  end
