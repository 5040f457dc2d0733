type t = { words : int array; n : int; mutable count : int }

let word_bits = 62 (* keep clear of the sign bit for simplicity *)

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make (((n + word_bits - 1) / word_bits) + 1) 0; n; count = 0 }

let check t i = if i < 0 || i >= t.n then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let set t i =
  check t i;
  if not (mem t i) then begin
    t.words.(i / word_bits) <- t.words.(i / word_bits) lor (1 lsl (i mod word_bits));
    t.count <- t.count + 1
  end

let clear t i =
  check t i;
  if mem t i then begin
    t.words.(i / word_bits) <- t.words.(i / word_bits) land lnot (1 lsl (i mod word_bits));
    t.count <- t.count - 1
  end

let cardinal t = t.count

let rec scan t i remaining =
  if remaining = 0 then -1
  else begin
    let i = if i >= t.n then 0 else i in
    if mem t i then i else scan t (i + 1) (remaining - 1)
  end

let first_set t ~from =
  if t.count = 0 then -1
  else begin
    let n = t.n in
    scan t (((from mod n) + n) mod n) n
  end

let fill t =
  for i = 0 to t.n - 1 do
    set t i
  done
