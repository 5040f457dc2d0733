type t = int

let ns x = x

let us x = int_of_float (Float.round (x *. 1e3))

let ms x = int_of_float (Float.round (x *. 1e6))

let to_us t = float_of_int t /. 1e3

let to_ms t = float_of_int t /. 1e6

let to_s t = float_of_int t /. 1e9

let tx_time ~gbps ~bytes =
  (* gbps Gbit/s = gbps bits/ns; time = bytes*8 / gbps ns, rounded up. *)
  let bits = float_of_int (bytes * 8) in
  Int.max 1 (int_of_float (Float.ceil (bits /. gbps)))

let pp fmt t =
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.3fus" (to_us t)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.3fms" (to_ms t)
  else Format.fprintf fmt "%.3fs" (to_s t)
