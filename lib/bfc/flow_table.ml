(* A sparse register array. The paper sizes the table at a large multiple
   of the queue count so that it stays mostly empty, so slots are stored
   in pages allocated on first touch.

   Global slot [g = e * slots + s] lies on page [g lsr page_bits]. [dir]
   holds one int per page: [-1] for a page never touched, else the index
   of the page's first slot. A page is [page_slots] stride-3 records
   [q; size; last], bump-allocated from int-array chunks of
   [chunk_pages] pages; the index of a word is
   [(chunk lsl chunk_bits) lor offset]. An [int array] holds immediates
   only, so writes need no barrier. Chunks are never copied or freed, so
   an index stays valid for the table's life, across [reset] too.

   Every chunk is [1 lsl chunk_bits] words long (the words after its last
   page are never used), so any offset is inside it: an accessor checks
   only the chunk number, against a chunk vector that holds exactly the
   chunks made so far. *)

let stride = 3

let page_bits = 3

let page_slots = 1 lsl page_bits

let page_mask = page_slots - 1

let page_words = stride * page_slots

let chunk_bits = 12

let chunk_words = 1 lsl chunk_bits

let chunk_mask = chunk_words - 1

let chunk_pages = chunk_words / page_words

type t = {
  slots : int;
  fmask : int;
  egresses : int;
  dir : int array;
  mutable chunks : int array array;
  mutable pages : int;  (* pages made so far *)
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let clear chunk =
  for i = 0 to (Array.length chunk / stride) - 1 do
    chunk.(stride * i) <- -1;
    chunk.((stride * i) + 1) <- 0;
    chunk.((stride * i) + 2) <- min_int
  done

(* Slot count is rounded up to a power of two so the per-packet [slot]
   lookup is a mask instead of a hardware division ([Flow.hash] already
   mixes the id through a splitmix64 finalizer, so the low bits are as
   good as a modulus). The paper only requires "a large multiple of the
   queue count"; rounding up strictly lowers the collision rate. *)
let create ~egresses ~queues_per_port ~mult =
  if egresses < 0 || queues_per_port <= 0 || mult <= 0 then invalid_arg "Flow_table.create";
  let slots = next_pow2 (queues_per_port * mult) 1 in
  let n_pages = ((egresses * slots) + page_mask) lsr page_bits in
  { slots; fmask = slots - 1; egresses; dir = Array.make n_pages (-1); chunks = [||]; pages = 0 }

let slots_per_port t = t.slots

let total_slots t = t.egresses * t.slots

(* First touch of page [p]: take the next page of the current chunk, or
   start a chunk when it is full. A chunk is initialised whole when it is
   made, and the chunk vector (one pointer per chunk) is copied then. *)
let[@inline never] touch t p g =
  let c = t.pages / chunk_pages in
  if c = Array.length t.chunks then begin
    let chunk = Array.make chunk_words 0 in
    clear chunk;
    t.chunks <- Array.append t.chunks [| chunk |]
  end;
  let base = (c lsl chunk_bits) lor ((t.pages mod chunk_pages) * page_words) in
  t.pages <- t.pages + 1;
  t.dir.(p) <- base;
  base + (stride * (g land page_mask))

let[@inline] slot t ~egress ~fid_hash =
  if egress < 0 || egress >= t.egresses then invalid_arg "Flow_table.slot: egress out of range";
  let g = (egress * t.slots) + (fid_hash land t.fmask) in
  let base = Array.unsafe_get t.dir (g lsr page_bits) in
  if base >= 0 then base + (stride * (g land page_mask)) else touch t (g lsr page_bits) g

let[@inline] get t i = Array.unsafe_get t.chunks.(i lsr chunk_bits) (i land chunk_mask)

let[@inline] set t i v = Array.unsafe_set t.chunks.(i lsr chunk_bits) (i land chunk_mask) v

let[@inline] q t i = get t i

let[@inline] size t i = get t (i + 1)

let[@inline] last t i = get t (i + 2)

let[@inline] set_q t i v = set t i v

let[@inline] set_size t i v = set t (i + 1) v

let[@inline] set_last t i v = set t (i + 2) v

(* Walks the egress's directory entries and reads only the pages that
   were touched; an absent page holds sizes of 0. With fewer than
   [page_slots] slots per egress a page spans egresses, so only its
   slots inside the egress are read. *)
let fold_sizes f acc t ~egress =
  if egress < 0 || egress >= t.egresses then invalid_arg "Flow_table: egress out of range";
  let lo = egress * t.slots in
  let hi = lo + t.slots in
  let acc = ref acc in
  for p = lo lsr page_bits to (hi - 1) lsr page_bits do
    let base = t.dir.(p) in
    if base >= 0 then
      for g = Int.max lo (p lsl page_bits) to Int.min hi ((p + 1) lsl page_bits) - 1 do
        acc := f !acc (size t (base + (stride * (g land page_mask))))
      done
  done;
  !acc

let occupied t ~egress = fold_sizes (fun acc n -> if n > 0 then acc + 1 else acc) 0 t ~egress

let resident t ~egress = fold_sizes ( + ) 0 t ~egress

let reset t = Array.iter clear t.chunks
