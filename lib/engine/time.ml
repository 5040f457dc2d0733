type t = int

let ns x = x

let us x = int_of_float (Float.round (x *. 1e3))

let ms x = int_of_float (Float.round (x *. 1e6))

let to_us t = float_of_int t /. 1e3

let tx_time ~gbps ~bytes =
  (* gbps Gbit/s = gbps bits/ns; time = bytes*8 / gbps ns, rounded up. *)
  let bits = float_of_int (bytes * 8) in
  Int.max 1 (int_of_float (Float.ceil (bits /. gbps)))
