(* Hierarchical timing wheel (Varghese & Lauck), the simulator's event
   queue: almost every event is a short-horizon rearm (port wakeups,
   in-flight deliveries), which a binary heap pays O(log n) to push and
   pop while a wheel pays a digit split and an array append.

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
   sorted insert. [push_late] lifts the monotone-rank requirement — a
   PDES barrier inserts cross-shard deliveries whose rank (their virtual
   send time) is below ranks already pushed — by paying a bucket scan to
   find the (time, rank, seq) position.

   Cancellation is lazy: the wheel never searches for an entry. The
   optional [garbage] predicate lets the owner mark entries dead
   (e.g. cancelled simulation events); a cascade drops dead entries
   instead of re-dealing them, so tombstones cost one bucket slot until
   the next cascade sweeps them, never a re-insertion.

   Payloads are ints (the owner's id for the entry: Sim queues pool
   slots), so a bucket is four parallel int arrays (time, rank, seq,
   value), grown geometrically and reused forever — steady-state
   push/pop allocates nothing, and no store into a bucket takes the
   GC's write barrier. Index arithmetic inside the scan loops is derived
   from [bsize]-bounded cursors, so it uses unsafe accessors. *)

let bits = 8

let bsize = 1 lsl bits (* buckets per level *)

let bmask = bsize - 1

(* 8 levels x 8 bits = 64 bits: deadlines up to max_int are representable
   (digits above the top level are always zero for OCaml's 63-bit ints). *)
let levels = 8

type bucket = {
  mutable bt : int array; (* absolute deadlines *)
  mutable br : int array; (* secondary ranks *)
  mutable bs : int array; (* global insertion sequence numbers *)
  mutable bv : int array; (* payloads *)
  mutable blen : int;
}

type t = {
  lv : bucket array array; (* lv.(level).(slot) *)
  l0 : bucket array; (* alias of lv.(0), the hot level *)
  garbage : int -> bool;
  release : int -> unit; (* called on every purged garbage entry *)
  mutable wnow : int; (* deadline of the bucket under the cursor *)
  mutable ci : int; (* pop cursor inside the current level-0 bucket *)
  mutable size : int; (* resident entries, including unpurged garbage *)
  mutable next_seq : int;
  mutable cap : int; (* total allocated bucket slots, for profiling *)
}

exception Empty

let () =
  Printexc.register_printer (function
    | Empty -> Some "Wheel.Empty (pop on an empty wheel)"
    | _ -> None)

let create ?(garbage = fun _ -> false) ?(release = fun _ -> ()) () =
  let lv =
    Array.init levels (fun _ ->
        Array.init bsize (fun _ -> { bt = [||]; br = [||]; bs = [||]; bv = [||]; blen = 0 }))
  in
  { lv; l0 = lv.(0); garbage; release; wnow = 0; ci = 0; size = 0; next_seq = 0; cap = 0 }

let length t = t.size

let is_empty t = t.size = 0

let capacity t = t.cap

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

let bucket_grow t b =
  let cap = Array.length b.bv in
  let ncap = if cap = 0 then 8 else cap * 2 in
  t.cap <- t.cap + (ncap - cap);
  let nt = Array.make ncap 0
  and nr = Array.make ncap 0
  and ns = Array.make ncap 0
  and nv = Array.make ncap 0 in
  Array.blit b.bt 0 nt 0 b.blen;
  Array.blit b.br 0 nr 0 b.blen;
  Array.blit b.bs 0 ns 0 b.blen;
  Array.blit b.bv 0 nv 0 b.blen;
  b.bt <- nt;
  b.br <- nr;
  b.bs <- ns;
  b.bv <- nv

(* Append one entry. *)
let bucket_put t b time rank seq v =
  if b.blen = Array.length b.bv then bucket_grow t b;
  Array.unsafe_set b.bt b.blen time;
  Array.unsafe_set b.br b.blen rank;
  Array.unsafe_set b.bs b.blen seq;
  Array.unsafe_set b.bv b.blen v;
  b.blen <- b.blen + 1

(* Drop dead entries from a bucket in place, preserving relative order —
   the same purge a cascade performs, applied early. *)
let bucket_compact t b =
  let w = ref 0 in
  for k = 0 to b.blen - 1 do
    let v = Array.unsafe_get b.bv k in
    if t.garbage v then begin
      t.size <- t.size - 1;
      t.release v
    end
    else begin
      if !w < k then begin
        Array.unsafe_set b.bt !w (Array.unsafe_get b.bt k);
        Array.unsafe_set b.br !w (Array.unsafe_get b.br k);
        Array.unsafe_set b.bs !w (Array.unsafe_get b.bs k);
        Array.unsafe_set b.bv !w v
      end;
      incr w
    end
  done;
  b.blen <- !w

(* Append, shedding tombstones under growth pressure: a full bucket is
   compacted before it is allowed to double, so far-future buckets that
   no cascade reaches within a run (cancelled retransmit timers pile up
   there) stay sized to their live population instead of growing with
   the total event count. If compaction frees less than a quarter of the
   bucket, grow anyway so pushes stay amortized O(1). Only safe where no
   in-bucket position is held across the call — the cursor bucket
   ([bucket_insert_sorted] fences on [ci]) and [push_late] (its insert
   position is computed before the append) must use plain [bucket_put]. *)
let bucket_put_pressure t b time rank seq v =
  let cap = Array.length b.bv in
  if b.blen = cap && cap > 0 then begin
    bucket_compact t b;
    if b.blen >= cap - (cap / 4) then bucket_grow t b
  end;
  bucket_put t b time rank seq v

(* Sorted insert for pushes at or below the cursor: walk the fresh tail
   entry left to its (time, rank, seq) slot. [from] fences off already-
   popped entries. The cursor bucket is kept fully sorted by this same
   walk, so the lexicographic stop condition lands the entry exactly: a
   monotone push (rank and seq both maximal) only moves past strictly-
   later deadlines — a push at the cursor time lands at the tail without
   moving at all — while a [push_late] entry also moves past same-time
   entries of larger rank. *)
let bucket_insert_sorted t b ~from time rank seq v =
  bucket_put t b time rank seq v;
  let i = ref (b.blen - 1) in
  let continue = ref true in
  while !continue && !i > from do
    let j = !i - 1 in
    let tj = Array.unsafe_get b.bt j in
    let after =
      tj > time
      || (tj = time
         &&
         let rj = Array.unsafe_get b.br j in
         rj > rank || (rj = rank && Array.unsafe_get b.bs j > seq))
    in
    if after then begin
      Array.unsafe_set b.bt !i tj;
      Array.unsafe_set b.br !i (Array.unsafe_get b.br j);
      Array.unsafe_set b.bs !i (Array.unsafe_get b.bs j);
      Array.unsafe_set b.bv !i (Array.unsafe_get b.bv j);
      decr i
    end
    else continue := false
  done;
  Array.unsafe_set b.bt !i time;
  Array.unsafe_set b.br !i rank;
  Array.unsafe_set b.bs !i seq;
  Array.unsafe_set b.bv !i v

let push t ~rank ~priority:time value =
  if time < 0 then invalid_arg "Wheel.push: negative priority";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  if time <= t.wnow then
    (* cursor bucket: either exactly the cursor deadline, or the
       below-cursor staging case described in the header comment *)
    bucket_insert_sorted t (Array.unsafe_get t.l0 (t.wnow land bmask)) ~from:t.ci time rank seq
      value
  else begin
    let l = level_for t time in
    let b = Array.unsafe_get (Array.unsafe_get t.lv l) ((time lsr (l * bits)) land bmask) in
    bucket_put_pressure t b time rank seq value;
    (* Insertion-sort the fresh tail entry left past larger ranks. With
       fully monotone ranks this loop runs zero iterations (one compare);
       it exists for the bounded disorder the simulator produces — pushes
       within one clock instant carry a canonical low-bits key, so a
       burst of same-instant pushes is not rank-sorted on arrival. Ranks
       across instants are monotone, so the walk never leaves the
       same-instant tail, and the bucket stays rank-sorted — which is
       what keeps same-deadline runs in (rank, seq) pop order. *)
    let i = ref (b.blen - 1) in
    let continue = ref true in
    while !continue && !i > 0 do
      let j = !i - 1 in
      if Array.unsafe_get b.br j > rank then begin
        Array.unsafe_set b.bt !i (Array.unsafe_get b.bt j);
        Array.unsafe_set b.br !i (Array.unsafe_get b.br j);
        Array.unsafe_set b.bs !i (Array.unsafe_get b.bs j);
        Array.unsafe_set b.bv !i (Array.unsafe_get b.bv j);
        decr i
      end
      else continue := false
    done;
    if !i < b.blen - 1 then begin
      Array.unsafe_set b.bt !i time;
      Array.unsafe_set b.br !i rank;
      Array.unsafe_set b.bs !i seq;
      Array.unsafe_set b.bv !i value
    end
  end

(* Out-of-rank-order insert (the PDES barrier): the entry's rank may be
   below ranks already resident at the same deadline, so the append fast
   path would mis-order it. Above the cursor the target bucket is not
   time-sorted (digit placement orders deadlines), so the entry goes
   immediately before the leftmost same-deadline entry of larger
   (rank, seq) — an O(bucket) scan, fine for the handful of cross-shard
   messages a barrier carries. At or below the cursor the sorted insert
   already handles arbitrary ranks. *)
let push_late t ~priority:time ~rank value =
  if time < 0 then invalid_arg "Wheel.push_late: negative priority";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  if time <= t.wnow then
    bucket_insert_sorted t (Array.unsafe_get t.l0 (t.wnow land bmask)) ~from:t.ci time rank seq
      value
  else begin
    let l = level_for t time in
    let b = Array.unsafe_get (Array.unsafe_get t.lv l) ((time lsr (l * bits)) land bmask) in
    (* leftmost same-deadline entry strictly after (rank, seq), if any *)
    let pos = ref (-1) in
    let i = ref 0 in
    while !pos < 0 && !i < b.blen do
      (if Array.unsafe_get b.bt !i = time then begin
         let ri = Array.unsafe_get b.br !i in
         if ri > rank || (ri = rank && Array.unsafe_get b.bs !i > seq) then pos := !i
       end);
      incr i
    done;
    bucket_put t b time rank seq value;
    match !pos with
    | -1 -> () (* no later same-deadline entry: the tail is the slot *)
    | p ->
      let last = b.blen - 1 in
      for j = last downto p + 1 do
        Array.unsafe_set b.bt j (Array.unsafe_get b.bt (j - 1));
        Array.unsafe_set b.br j (Array.unsafe_get b.br (j - 1));
        Array.unsafe_set b.bs j (Array.unsafe_get b.bs (j - 1));
        Array.unsafe_set b.bv j (Array.unsafe_get b.bv (j - 1))
      done;
      Array.unsafe_set b.bt p time;
      Array.unsafe_set b.br p rank;
      Array.unsafe_set b.bs p seq;
      Array.unsafe_set b.bv p value
  end

(* Release policy for a bucket that grew past [shrink_threshold] slots,
   applied after it cascades. Buckets at level 2 and above are revisited
   only after a full wrap of their level (16.8 ms at level 2), so a
   burst-grown array would sit idle for the rest of the run: always
   released. A level-1 bucket is revisited
   every 65.5 us; it keeps its arrays unless they are more than
   [shrink_ratio] times the live entries it just re-dealt, so a bucket
   that refills to a similar size on every visit is not regrown from 8
   slots each time, while a burst leftover is still dropped. *)
let shrink_threshold = 1024

let shrink_ratio = 4

(* Re-deal a cascading bucket into the levels below; dead entries are
   purged here instead of travelling further down the hierarchy. Source
   order is preserved, which keeps same-deadline runs in (rank, seq)
   order. *)
let redistribute t ~level src =
  let n = src.blen in
  src.blen <- 0;
  let live = ref 0 in
  for k = 0 to n - 1 do
    let v = Array.unsafe_get src.bv k in
    if t.garbage v then begin
      t.size <- t.size - 1;
      t.release v
    end
    else begin
      incr live;
      let time = Array.unsafe_get src.bt k in
      let l = level_for t time in
      let b = Array.unsafe_get (Array.unsafe_get t.lv l) ((time lsr (l * bits)) land bmask) in
      bucket_put_pressure t b time (Array.unsafe_get src.br k) (Array.unsafe_get src.bs k) v
    end
  done;
  let cap = Array.length src.bv in
  if cap > shrink_threshold && (level >= 2 || cap > shrink_ratio * !live) then begin
    t.cap <- t.cap - cap;
    src.bt <- [||];
    src.br <- [||];
    src.bs <- [||];
    src.bv <- [||]
  end

(* Position the cursor on the next resident entry. Returns false when
   the wheel drained (possibly because a cascade purged the remaining
   garbage). Each cascade strictly advances [wnow], so the mutual
   recursion is bounded by the number of levels per resident entry. *)
let rec reposition t =
  if t.size = 0 then false
  else begin
    let b = Array.unsafe_get t.l0 (t.wnow land bmask) in
    if t.ci < b.blen then true
    else begin
      b.blen <- 0;
      t.ci <- 0;
      (* scan the rest of the level-0 window *)
      let base = t.wnow land lnot bmask in
      let i = ref ((t.wnow land bmask) + 1) in
      let found = ref false in
      while (not !found) && !i < bsize do
        if (Array.unsafe_get t.l0 !i).blen > 0 then found := true else incr i
      done;
      if !found then begin
        t.wnow <- base lor !i;
        true
      end
      else cascade t 1
    end
  end

and cascade t l =
  if l >= levels then false
  else begin
    let lvl = Array.unsafe_get t.lv l in
    let i = ref (((t.wnow lsr (l * bits)) land bmask) + 1) in
    let found = ref false in
    while (not !found) && !i < bsize do
      if (Array.unsafe_get lvl !i).blen > 0 then found := true else incr i
    done;
    if not !found then cascade t (l + 1)
    else begin
      let span = (l + 1) * bits in
      (* keep the digits above level l, set digit l, zero everything
         below (span >= 62 would shift past the int width; those digits
         are always zero for non-negative ints) *)
      let keep = if span >= 62 then 0 else t.wnow land lnot ((1 lsl span) - 1) in
      t.wnow <- keep lor (!i lsl (l * bits));
      t.ci <- 0;
      redistribute t ~level:l (Array.unsafe_get lvl !i);
      reposition t
    end
  end

let head_time t =
  if reposition t then
    let b = Array.unsafe_get t.l0 (t.wnow land bmask) in
    Array.unsafe_get b.bt t.ci
  else -1

let pop_min_exn t =
  if not (reposition t) then raise Empty
  else begin
    let b = Array.unsafe_get t.l0 (t.wnow land bmask) in
    let v = Array.unsafe_get b.bv t.ci in
    t.ci <- t.ci + 1;
    t.size <- t.size - 1;
    v
  end

(* Batched pop: one reposition, then a straight scan of the (sorted)
   cursor bucket, calling [f] on each drained entry. Drains the maximal
   leading run of entries at deadline [time] whose rank is strictly
   below [rank_bound]; when the head entry itself is at or above the
   bound, pops exactly that one entry. The caller (Sim's fused run
   loop) passes [time = head_time] and [rank_bound = time lsl key_bits]:
   entries below the bound were inserted at strictly earlier clocks, so
   nothing [f] executes can push ahead of them — same-time entries pop
   in non-decreasing rank order, so the eligible run is exactly a
   prefix. [f] may push (the bucket arrays and [blen] are re-read every
   iteration, and a same-instant push carries rank >= the bound, which
   ends the run) but must not pop. The callback is the same value every
   call (Sim preallocates it), so the indirect call predicts perfectly,
   and the drain itself writes only the cursor. Returns the number of entries drained (0 only when the
   wheel is empty or the head moved off [time]). *)
let drain_run t ~time ~rank_bound f =
  if not (reposition t) then 0
  else begin
    let b = Array.unsafe_get t.l0 (t.wnow land bmask) in
    if Array.unsafe_get b.bt t.ci <> time then 0
    else begin
      let n = ref 0 in
      while
        t.ci < b.blen
        && Array.unsafe_get b.bt t.ci = time
        && (!n = 0 || Array.unsafe_get b.br t.ci < rank_bound)
      do
        let v = Array.unsafe_get b.bv t.ci in
        t.ci <- t.ci + 1;
        t.size <- t.size - 1;
        incr n;
        f v
      done;
      !n
    end
  end

(* Keep the bucket arrays: cleared wheels refill without re-growing. *)
let clear t =
  Array.iter (fun lvl -> Array.iter (fun b -> b.blen <- 0) lvl) t.lv;
  t.wnow <- 0;
  t.ci <- 0;
  t.size <- 0;
  t.next_seq <- 0
