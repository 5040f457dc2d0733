(* Open-addressing int-keyed counter for the per-packet hot path of
   Switch's active-flow counting. Compared to
   [Hashtbl]:
     - no bucket lists, so a hit is a multiply, a mask and (usually) one
       array probe — no pointer chasing, no boxed key comparison;
     - lookups allocate nothing;
     - deletions use backward-shift compaction, so there are no
       tombstones and probe chains never degrade.

   Keys are hashed with a Fibonacci-style odd multiplier (the splitmix64
   increment, truncated to OCaml's 62-bit literal range); multiplication
   by an odd constant is a bijection on the low bits, so masking cannot
   alias more keys than the table has slots. [min_int] is reserved as
   the empty-slot marker — flow and packet ids are small non-negative
   ints, far from it. Slots freed by [remove]/[reset] are not scrubbed:
   stale values are unreachable (their key slot is [empty]) and are
   overwritten before any read. *)

let empty_key = min_int

let hash_mult = 0x2545F4914F6CDD1D

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

(* Values live in a plain [int array] (no write barrier) and absent keys
   read as 0, so call sites need no [int ref] cells or option matching. *)
module Counter = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable mask : int;
    mutable count : int;
  }

  let create ?(size = 16) () =
    let cap = next_pow2 (max 8 size) 8 in
    { keys = Array.make cap empty_key; vals = Array.make cap 0; mask = cap - 1; count = 0 }

  let length t = t.count

  let slot t k = k * hash_mult land t.mask

  let probe t k =
    let keys = t.keys in
    let mask = t.mask in
    let i = ref (slot t k) in
    while
      let kk = Array.unsafe_get keys !i in
      kk <> k && kk <> empty_key
    do
      i := (!i + 1) land mask
    done;
    !i

  let get t k =
    let i = probe t k in
    if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i else 0

  let grow t =
    let ocap = t.mask + 1 in
    let ncap = ocap * 2 in
    let okeys = t.keys and ovals = t.vals in
    t.keys <- Array.make ncap empty_key;
    t.vals <- Array.make ncap 0;
    t.mask <- ncap - 1;
    for j = 0 to ocap - 1 do
      let k = Array.unsafe_get okeys j in
      if k <> empty_key then begin
        let i = ref (slot t k) in
        while Array.unsafe_get t.keys !i <> empty_key do
          i := (!i + 1) land t.mask
        done;
        Array.unsafe_set t.keys !i k;
        Array.unsafe_set t.vals !i (Array.unsafe_get ovals j)
      end
    done

  let delete_at t i =
    let keys = t.keys and mask = t.mask in
    let i = ref i in
    let j = ref i.contents in
    let stop = ref false in
    while not !stop do
      j := (!j + 1) land mask;
      let k = Array.unsafe_get keys !j in
      if k = empty_key then begin
        Array.unsafe_set keys !i empty_key;
        stop := true
      end
      else begin
        let h = slot t k in
        if (!j - h) land mask >= (!j - !i) land mask then begin
          Array.unsafe_set keys !i k;
          Array.unsafe_set t.vals !i (Array.unsafe_get t.vals !j);
          i := !j
        end
      end
    done;
    t.count <- t.count - 1

  let set t k v =
    if 2 * (t.count + 1) > t.mask + 1 then grow t;
    let i = probe t k in
    if Array.unsafe_get t.keys i <> k then begin
      Array.unsafe_set t.keys i k;
      t.count <- t.count + 1
    end;
    Array.unsafe_set t.vals i v

  let remove t k =
    let i = probe t k in
    if Array.unsafe_get t.keys i = k then delete_at t i

  let incr t k = set t k (get t k + 1)

  let decr t k =
    let n = get t k in
    if n > 1 then set t k (n - 1) else if n = 1 then remove t k

  let reset t =
    Array.fill t.keys 0 (Array.length t.keys) empty_key;
    t.count <- 0
end
