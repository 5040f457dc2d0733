(* One flat register array: slot [s] of egress [e] is the stride-3 record
   [q; size; last] starting at [stride * (e * slots + s)]. An [int array]
   holds immediates only, so the table is three words per slot with no
   per-slot header or pointer, and writes need no barrier. *)
type t = { slots : int; fmask : int; regs : int array }

let stride = 3

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let clear regs =
  for i = 0 to (Array.length regs / stride) - 1 do
    regs.(stride * i) <- -1;
    regs.((stride * i) + 1) <- 0;
    regs.((stride * i) + 2) <- min_int
  done

(* Slot count is rounded up to a power of two so the per-packet [slot]
   lookup is a mask instead of a hardware division ([Flow.hash] already
   mixes the id through a splitmix64 finalizer, so the low bits are as
   good as a modulus). The paper only requires "a large multiple of the
   queue count"; rounding up strictly lowers the collision rate. *)
let create ~egresses ~queues_per_port ~mult =
  if egresses < 0 || queues_per_port <= 0 || mult <= 0 then invalid_arg "Flow_table.create";
  let slots = next_pow2 (queues_per_port * mult) 1 in
  let regs = Array.make (stride * egresses * slots) 0 in
  clear regs;
  { slots; fmask = slots - 1; regs }

let slots_per_port t = t.slots

let total_slots t = Array.length t.regs / stride

let[@inline] slot t ~egress ~fid_hash = stride * ((egress * t.slots) + (fid_hash land t.fmask))

let[@inline] q t i = t.regs.(i)

let[@inline] size t i = t.regs.(i + 1)

let[@inline] last t i = t.regs.(i + 2)

let[@inline] set_q t i v = t.regs.(i) <- v

let[@inline] set_size t i v = t.regs.(i + 1) <- v

let[@inline] set_last t i v = t.regs.(i + 2) <- v

let fold_sizes f acc t ~egress =
  let base = stride * egress * t.slots in
  let acc = ref acc in
  for s = 0 to t.slots - 1 do
    acc := f !acc t.regs.(base + (stride * s) + 1)
  done;
  !acc

let occupied t ~egress = fold_sizes (fun acc n -> if n > 0 then acc + 1 else acc) 0 t ~egress

let resident t ~egress = fold_sizes ( + ) 0 t ~egress

let reset t = clear t.regs
