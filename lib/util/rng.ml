(* The 64-bit state lives unboxed in 8 bytes: a mutable [int64] field
   would box every value stored into it, so each draw would allocate. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 (Int64.of_int seed);
  t

let copy = Bytes.copy

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 1)

(* Rejection sampling to avoid modulo bias for large [n]. *)
let rec reject t n v = if v < 0 then reject t n (bits t) else v mod n

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = bits t in
  if n land (n - 1) = 0 then v land (n - 1) else reject t n v

let float t =
  (* 53 random bits mapped to [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int v *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Rng.bernoulli: probability %g not in [0, 1]" p);
  (* The endpoints consume no randomness so that a degenerate coin does not
     perturb the stream of later draws. *)
  if p <= 0.0 then false else if p >= 1.0 then true else float t < p

let exponential t ~mean =
  let u = 1.0 -. float t in
  -.mean *. log u

let normal t =
  let rec nonzero () =
    let u = float t in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let lognormal t ~mu ~sigma = exp (mu +. (sigma *. normal t))

let lognormal_mean t ~mean ~sigma =
  let mu = log mean -. (sigma *. sigma /. 2.0) in
  lognormal t ~mu ~sigma

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
