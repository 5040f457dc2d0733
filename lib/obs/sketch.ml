(* Log-bucketed quantile sketch (DDSketch-style).

   A positive finite double [v] lands in bucket [bits_of_float v >> shift]
   with [shift = 52 - log2k]: the top bits of the IEEE encoding are the
   exponent plus the leading [log2k] mantissa bits, and for positive floats
   the bit pattern is monotone in the value. That gives K = 2^log2k
   sub-buckets per octave, so every bucket spans a relative width of at
   most 1/K and the bucket midpoint is within alpha = 1/(2K) relative error
   of any value in it.

   State is integer-only (bucket counts plus exact min/max), so [encode]
   is canonical: equal contents encode byte-identically.

   The hot path ([add]) is pure integer arithmetic after two float
   comparisons; everything else is control-plane. *)

type t = {
  log2k : int;
  shift : int;
  (* absolute bucket index of counts.(0); counts is a dense window that
     grows to cover the observed index range *)
  mutable offset : int;
  mutable counts : int array;
  mutable n_pos : int; (* bucketed observations: 0 < v <= max_float *)
  mutable n_other : int; (* zero / negative / NaN / infinite observations *)
  mutable min_v : float; (* exact extremes of the bucketed observations *)
  mutable max_v : float;
}

(* bfc-lint: control-plane *)
let create ?(alpha = 0.01) () =
  if not (alpha > 0.0 && alpha < 0.5) then invalid_arg "Sketch.create: alpha must be in (0, 0.5)";
  let k = 1.0 /. (2.0 *. alpha) in
  let log2k = int_of_float (Float.ceil (Float.log k /. Float.log 2.0)) in
  let log2k = Stdlib.max 0 (Stdlib.min 20 log2k) in
  {
    log2k;
    shift = 52 - log2k;
    offset = 0;
    counts = [||];
    n_pos = 0;
    n_other = 0;
    min_v = infinity;
    max_v = neg_infinity;
  }

(* bfc-lint: control-plane *)
let alpha t = 1.0 /. float_of_int (2 lsl t.log2k)

(* Extend the dense window to cover absolute bucket [idx], with slack on
   the growing side so repeated extension is amortised. Rare (the window
   settles after the first few octaves appear); bfc-lint: control-plane *)
let grow t idx =
  let len = Array.length t.counts in
  if len = 0 then begin
    t.offset <- idx;
    t.counts <- Array.make 8 0
  end
  else begin
    let lo = Stdlib.min idx t.offset in
    let hi = Stdlib.max (idx + 1) (t.offset + len) in
    let span = hi - lo in
    let cap = Stdlib.max span (2 * len) in
    let new_off = if idx < t.offset then Stdlib.max 0 (hi - cap) else lo in
    let nc = Array.make cap 0 in
    Array.blit t.counts 0 nc (t.offset - new_off) len;
    t.offset <- new_off;
    t.counts <- nc
  end

let add t v =
  if v > 0.0 && v <= max_float then begin
    let idx = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) t.shift) in
    let rel = idx - t.offset in
    if rel < 0 || rel >= Array.length t.counts then grow t idx;
    let rel = idx - t.offset in
    t.counts.(rel) <- t.counts.(rel) + 1;
    t.n_pos <- t.n_pos + 1;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end
  else t.n_other <- t.n_other + 1

let count t = t.n_pos + t.n_other

let is_empty t = t.n_pos + t.n_other = 0

let min t = if t.n_pos = 0 then nan else t.min_v

let max t = if t.n_pos = 0 then nan else t.max_v

(* Lower edge of absolute bucket [i]: the smallest positive double whose
   top bits equal [i]. bfc-lint: control-plane *)
let edge_value t i = Int64.float_of_bits (Int64.shift_left (Int64.of_int i) t.shift)

(* Midpoint estimate for absolute bucket [i], clamped to the exact observed
   range (clamping can only reduce the error). bfc-lint: control-plane *)
let bucket_estimate t i =
  let lo = edge_value t i and hi = edge_value t (i + 1) in
  let mid = (lo +. hi) /. 2.0 in
  if mid < t.min_v then t.min_v else if mid > t.max_v then t.max_v else mid

(* Estimate of the rank-th order statistic (0-based). Non-positive
   observations sort below every bucketed one and are estimated as 0; the
   extreme bucketed ranks are the tracked exact min/max, so quantile 0
   and 1 are exact like Sample.percentile's. bfc-lint: control-plane *)
let order_stat t rank =
  if rank < t.n_other then 0.0
  else if rank = t.n_other then t.min_v
  else if rank = t.n_other + t.n_pos - 1 then t.max_v
  else begin
    let target = rank - t.n_other in
    let acc = ref 0 and i = ref 0 and found = ref (-1) in
    let len = Array.length t.counts in
    while !found < 0 && !i < len do
      acc := !acc + t.counts.(!i);
      if !acc > target then found := t.offset + !i;
      incr i
    done;
    bucket_estimate t !found
  end

(* bfc-lint: control-plane *)
let quantile t q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Sketch.quantile: q out of range";
  let total = t.n_pos + t.n_other in
  if total = 0 then invalid_arg "Sketch.quantile: empty sketch";
  if total = 1 then order_stat t 0
  else begin
    (* same convention as Stats.Sample.percentile: rank = q * (n-1), linear
       interpolation between the two adjacent order statistics. Each order
       statistic is estimated within alpha relative error, and a convex
       combination of positive values preserves that bound, so the estimate
       stays within alpha of the exact interpolated percentile. *)
    let rank = q *. float_of_int (total - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (total - 1) in
    let frac = rank -. float_of_int lo in
    if frac = 0.0 then order_stat t lo
    else begin
      let a = order_stat t lo and b = order_stat t hi in
      a +. (frac *. (b -. a))
    end
  end

(* bfc-lint: control-plane *)
let percentile t p =
  if not (p >= 0.0 && p <= 100.0) then invalid_arg "Sketch.percentile: p out of range";
  quantile t (p /. 100.0)

(* Mean estimate from bucket midpoints, accumulated in ascending bucket
   order (canonical: independent of add interleaving).
   Non-positive observations contribute 0. bfc-lint: control-plane *)
let mean t =
  let total = t.n_pos + t.n_other in
  if total = 0 then nan
  else begin
    let acc = ref 0.0 in
    Array.iteri
      (fun i c ->
        if c > 0 then acc := !acc +. (float_of_int c *. bucket_estimate t (t.offset + i)))
      t.counts;
    !acc /. float_of_int total
  end

let bucket_count t = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 t.counts

(* bfc-lint: control-plane *)
(* Canonical binary encoding: the stored window is trimmed to its nonzero
   span, so two sketches with identical contents but different growth
   histories encode byte-identically.
   bfc-lint: control-plane *)
let encode t =
  let len = Array.length t.counts in
  let first = ref 0 in
  while !first < len && t.counts.(!first) = 0 do incr first done;
  let last = ref (len - 1) in
  while !last >= !first && t.counts.(!last) = 0 do decr last done;
  let nb = if !first > !last then 0 else !last - !first + 1 in
  let buf = Buffer.create (64 + (8 * nb)) in
  Buffer.add_string buf "BFCSK1";
  Buffer.add_uint8 buf t.log2k;
  Buffer.add_int64_le buf (Int64.of_int (if nb = 0 then 0 else t.offset + !first));
  Buffer.add_int32_le buf (Int32.of_int nb);
  for i = !first to !first + nb - 1 do
    Buffer.add_int64_le buf (Int64.of_int t.counts.(i))
  done;
  Buffer.add_int64_le buf (Int64.of_int t.n_pos);
  Buffer.add_int64_le buf (Int64.of_int t.n_other);
  Buffer.add_int64_le buf (Int64.bits_of_float t.min_v);
  Buffer.add_int64_le buf (Int64.bits_of_float t.max_v);
  Buffer.contents buf

(* bfc-lint: control-plane *)
let decode s =
  let b = Bytes.of_string s in
  let blen = Bytes.length b in
  if blen < 19 || Bytes.sub_string b 0 6 <> "BFCSK1" then invalid_arg "Sketch.decode: bad magic";
  let log2k = Bytes.get_uint8 b 6 in
  if log2k > 20 then invalid_arg "Sketch.decode: bad resolution";
  let offset = Int64.to_int (Bytes.get_int64_le b 7) in
  let nb = Int32.to_int (Bytes.get_int32_le b 15) in
  if nb < 0 || blen <> 19 + (8 * nb) + 32 then invalid_arg "Sketch.decode: truncated";
  let counts = Array.init nb (fun i -> Int64.to_int (Bytes.get_int64_le b (19 + (8 * i)))) in
  let p = 19 + (8 * nb) in
  {
    log2k;
    shift = 52 - log2k;
    offset;
    counts;
    n_pos = Int64.to_int (Bytes.get_int64_le b p);
    n_other = Int64.to_int (Bytes.get_int64_le b (p + 8));
    min_v = Int64.float_of_bits (Bytes.get_int64_le b (p + 16));
    max_v = Int64.float_of_bits (Bytes.get_int64_le b (p + 24));
  }
