(* A register array that holds its live slots only. The paper sizes the
   table at a large multiple of the queue count so that it stays mostly
   empty, and classify treats a vacant slot like a fresh one, so only the
   other slots are stored.

   Slot [g = e * slots + s] is a key in an open-addressing table with
   linear probing. [tbl] holds [stride]-word entries [key; q; size; last];
   [key = -1] marks an empty entry. An [int array] holds immediates only,
   so writes need no barrier. An index is the position of an entry's key
   word.

   At most half the entries are in use. The insert that would pass that
   load rebuilds the table into [spare] without its vacant entries, and
   doubles the capacity only if what is left still fills more than a
   quarter of it. Entries move then, which is why an index names its slot
   only until the next [slot] call. *)

let stride = 4

let initial_capacity = 64

type t = {
  slots : int;
  fmask : int;
  egresses : int;
  sticky : Bfc_engine.Time.t;
  mutable shift : int;  (* 63 - log2 capacity: [home] keeps a product's top bits *)
  mutable mask : int;  (* capacity - 1 *)
  mutable tbl : int array;
  mutable spare : int array;  (* same length as [tbl]; every key -1 between rebuilds *)
  mutable used : int;  (* entries whose key is set, vacant ones included *)
  mutable purges : int;
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let empty_array cap = Array.make (stride * cap) (-1)

let set_capacity t cap =
  t.shift <- 63 - log2 cap;
  t.mask <- cap - 1;
  t.tbl <- empty_array cap;
  t.spare <- empty_array cap;
  t.used <- 0

(* Slot count is rounded up to a power of two so the per-packet [slot]
   lookup is a mask instead of a hardware division ([Flow.hash] already
   mixes the id through a splitmix64 finalizer, so the low bits are as
   good as a modulus). The paper only requires "a large multiple of the
   queue count"; rounding up strictly lowers the collision rate. *)
let create ~egresses ~queues_per_port ~mult ~sticky =
  if egresses < 0 || queues_per_port <= 0 || mult <= 0 then invalid_arg "Flow_table.create";
  let slots = next_pow2 (queues_per_port * mult) 1 in
  let t =
    {
      slots;
      fmask = slots - 1;
      egresses;
      sticky;
      shift = 0;
      mask = 0;
      tbl = [||];
      spare = [||];
      used = 0;
      purges = 0;
    }
  in
  set_capacity t initial_capacity;
  t

let slots_per_port t = t.slots

let capacity t = t.mask + 1

let purges t = t.purges

(* Fibonacci hashing: the top bits of the key times an odd constant, so
   keys that differ only in their egress bits still spread. *)
let[@inline] home t g = ((g * 0x2545F4914F6CDD1D) lsr t.shift) * stride

(* The one vacancy rule: no packets resident, and either never assigned
   or untouched for longer than the sticky window. *)
let[@inline] vacant_at tbl i sticky now =
  tbl.(i + 2) = 0 && (tbl.(i + 1) < 0 || now - tbl.(i + 3) > sticky)

let[@inline] fresh tbl i g =
  Array.unsafe_set tbl i g;
  Array.unsafe_set tbl (i + 1) (-1);
  Array.unsafe_set tbl (i + 2) 0;
  Array.unsafe_set tbl (i + 3) min_int

(* The entry of [g], or the empty entry where [g] would go. *)
let[@inline] probe t tbl g =
  let i = ref (home t g) in
  let wrap = (stride * t.mask) + (stride - 1) in
  while
    let k = Array.unsafe_get tbl !i in
    k <> g && k >= 0
  do
    i := (!i + stride) land wrap
  done;
  !i

(* Rebuild without the vacant entries, into [spare] at the same capacity
   or into fresh arrays at twice it, then place [g]. *)
let[@inline never] make_room t g ~now =
  t.purges <- t.purges + 1;
  let old = t.tbl in
  let live = ref 0 in
  for j = 0 to t.mask do
    let i = stride * j in
    if Array.unsafe_get old i >= 0 && not (vacant_at old i t.sticky now) then incr live
  done;
  if 4 * (!live + 1) > t.mask + 1 then set_capacity t (2 * (t.mask + 1))
  else begin
    t.tbl <- t.spare;
    t.spare <- old;
    t.used <- 0
  end;
  let tbl = t.tbl in
  for j = 0 to Array.length old / stride - 1 do
    let i = stride * j in
    let k = Array.unsafe_get old i in
    if k >= 0 then begin
      if not (vacant_at old i t.sticky now) then begin
        let d = probe t tbl k in
        Array.blit old i tbl d stride;
        t.used <- t.used + 1
      end;
      Array.unsafe_set old i (-1)
    end
  done;
  let i = probe t tbl g in
  fresh tbl i g;
  t.used <- t.used + 1;
  i

let slot t ~egress ~fid_hash ~now =
  if egress < 0 || egress >= t.egresses then invalid_arg "Flow_table.slot: egress out of range";
  let g = (egress * t.slots) + (fid_hash land t.fmask) in
  let tbl = t.tbl in
  let i = probe t tbl g in
  if Array.unsafe_get tbl i = g then begin
    if vacant_at tbl i t.sticky now then fresh tbl i g;
    i
  end
  else if 2 * (t.used + 1) > t.mask + 1 then make_room t g ~now
  else begin
    fresh tbl i g;
    t.used <- t.used + 1;
    i
  end

let vacant t i ~now = vacant_at t.tbl i t.sticky now

let[@inline] q t i = t.tbl.(i + 1)

let[@inline] size t i = t.tbl.(i + 2)

let[@inline] last t i = t.tbl.(i + 3)

let[@inline] set_q t i v = t.tbl.(i + 1) <- v

let[@inline] set_size t i v = t.tbl.(i + 2) <- v

let[@inline] set_last t i v = t.tbl.(i + 3) <- v

(* Reads every entry once: the sizes of the entries keyed to [egress].
   An absent slot holds a size of 0. *)
let fold_sizes f acc t ~egress =
  if egress < 0 || egress >= t.egresses then invalid_arg "Flow_table: egress out of range";
  let acc = ref acc in
  for j = 0 to t.mask do
    let i = stride * j in
    let k = t.tbl.(i) in
    if k >= 0 && k / t.slots = egress then acc := f !acc t.tbl.(i + 2)
  done;
  !acc

let occupied t ~egress = fold_sizes (fun acc n -> if n > 0 then acc + 1 else acc) 0 t ~egress

let resident t ~egress = fold_sizes ( + ) 0 t ~egress

let reset t =
  set_capacity t initial_capacity;
  t.purges <- 0
