(* Parallel-array 4-ary min-heap. Priorities, secondary ranks, and
   tie-breaking sequence numbers live in unboxed int arrays; values in a
   fourth array. The hot-path accessors ([pop_min_exn], [peek_priority])
   allocate nothing — no entry record, no [Some (p, v)] tuple — which
   matters because the simulator pops one event per packet per hop.

   Ordering is (priority, rank, seq). The rank is a caller-supplied
   secondary key; the simulator passes its clock at insertion
   time so that entries inserted later than a sequential run would have —
   cross-shard deliveries placed at a PDES window barrier — can take the
   position the sequential run would have given them. When every push
   carries a non-decreasing rank (any sequential run: the clock is
   monotone), (rank, seq) orders exactly like seq alone, so the rank
   changes nothing there.

   Two further hot-path choices, both measured on the event-engine macro
   benchmark: a branching factor of 4 halves the tree depth versus a binary
   heap (the four children of a node share cache lines in the parallel
   arrays), and sifting moves a hole instead of swapping — the displaced
   element's (priority, rank, seq, value) stay in locals and are written
   exactly once at the final position. Internal index arithmetic is
   trusted, so the sift loops use unsafe array accessors; every index is
   derived from [size], which the public API keeps within capacity. *)

type 'a t = {
  mutable prios : int array;
  mutable ranks : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

exception Empty

let () =
  Printexc.register_printer (function
    | Empty -> Some "Heap.Empty (pop/peek on an empty heap)"
    | _ -> None)

let create () =
  { prios = [||]; ranks = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

let capacity t = Array.length t.vals

(* [v] seeds the value array on first growth; after that slots are recycled. *)
let grow t v =
  let cap = Array.length t.vals in
  if t.size = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let np = Array.make ncap 0 in
    let nr = Array.make ncap 0 in
    let ns = Array.make ncap 0 in
    let nv = Array.make ncap v in
    Array.blit t.prios 0 np 0 t.size;
    Array.blit t.ranks 0 nr 0 t.size;
    Array.blit t.seqs 0 ns 0 t.size;
    Array.blit t.vals 0 nv 0 t.size;
    t.prios <- np;
    t.ranks <- nr;
    t.seqs <- ns;
    t.vals <- nv
  end

let push t ~rank ~priority value =
  grow t value;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let prios = t.prios and ranks = t.ranks and seqs = t.seqs and vals = t.vals in
  (* sift the hole up; write the new element once at its final slot *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pp = Array.unsafe_get prios parent in
    let less =
      priority < pp
      || (priority = pp
         &&
         let pr = Array.unsafe_get ranks parent in
         rank < pr || (rank = pr && seq < Array.unsafe_get seqs parent))
    in
    if less then begin
      Array.unsafe_set prios !i pp;
      Array.unsafe_set ranks !i (Array.unsafe_get ranks parent);
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set vals !i (Array.unsafe_get vals parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set prios !i priority;
  Array.unsafe_set ranks !i rank;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i value

let peek_priority t =
  if t.size = 0 then raise Empty;
  t.prios.(0)

let pop_min_exn t =
  let n = t.size - 1 in
  if n < 0 then raise Empty;
  let prios = t.prios and ranks = t.ranks and seqs = t.seqs and vals = t.vals in
  let top = Array.unsafe_get vals 0 in
  t.size <- n;
  if n > 0 then begin
    (* re-insert the last element by sifting a hole down from the root *)
    let mp = Array.unsafe_get prios n in
    let mr = Array.unsafe_get ranks n in
    let ms = Array.unsafe_get seqs n in
    let mv = Array.unsafe_get vals n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c0 = (4 * !i) + 1 in
      if c0 >= n then continue := false
      else begin
        (* smallest of up to four children *)
        let last = min (c0 + 3) (n - 1) in
        let best = ref c0 in
        let bp = ref (Array.unsafe_get prios c0) in
        let br = ref (Array.unsafe_get ranks c0) in
        let bs = ref (Array.unsafe_get seqs c0) in
        for c = c0 + 1 to last do
          let cp = Array.unsafe_get prios c in
          let less =
            cp < !bp
            || (cp = !bp
               &&
               let cr = Array.unsafe_get ranks c in
               cr < !br || (cr = !br && Array.unsafe_get seqs c < !bs))
          in
          if less then begin
            best := c;
            bp := cp;
            br := Array.unsafe_get ranks c;
            bs := Array.unsafe_get seqs c
          end
        done;
        if !bp < mp || (!bp = mp && (!br < mr || (!br = mr && !bs < ms))) then begin
          Array.unsafe_set prios !i !bp;
          Array.unsafe_set ranks !i !br;
          Array.unsafe_set seqs !i !bs;
          Array.unsafe_set vals !i (Array.unsafe_get vals !best);
          i := !best
        end
        else continue := false
      end
    done;
    Array.unsafe_set prios !i mp;
    Array.unsafe_set ranks !i mr;
    Array.unsafe_set seqs !i ms;
    Array.unsafe_set vals !i mv
  end;
  top

(* Batched pop, ordering-compatible with [Wheel.drain_run]: drain the
   maximal leading run of entries at priority [time] with rank strictly
   below [rank_bound] (entries inserted at earlier clocks, which nothing
   [f] executes can overtake), calling [f] on each; when the head itself
   is at or above the bound, pop exactly one entry. [f] may push — the
   parallel arrays are re-read from [t] every iteration, and a push at
   the same priority carries rank >= the bound, which ends the run —
   but must not pop. The heap still pays a sift per entry; the win here
   is the caller's amortized head checks, not the pop itself. *)
let drain_run t ~time ~rank_bound f =
  let n = ref 0 in
  while
    t.size > 0
    && Array.unsafe_get t.prios 0 = time
    && (!n = 0 || Array.unsafe_get t.ranks 0 < rank_bound)
  do
    let v = pop_min_exn t in
    incr n;
    f v
  done;
  !n

let pop t =
  if t.size = 0 then None
  else begin
    let p = t.prios.(0) in
    Some (p, pop_min_exn t)
  end

let peek t = if t.size = 0 then None else Some (t.prios.(0), t.vals.(0))

let min_priority t = if t.size = 0 then None else Some t.prios.(0)

(* Keep the backing arrays: pooled simulations clear and refill the heap
   repeatedly, and re-growing from zero capacity each round defeats the
   point. Popped value slots are not scrubbed — they are overwritten by the
   next pushes, and the values the engine stores (event handles) are small. *)
let clear t =
  t.size <- 0;
  t.next_seq <- 0
