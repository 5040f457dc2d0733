type t = {
  mtu : int;
  target : float; (* ns *)
  mutable w : float; (* bytes *)
}

(* The target delay as a multiple of the base RTT. *)
let target_mult = 2.5

let create ~mtu ~bdp ~base_rtt =
  { mtu; target = target_mult *. float_of_int base_rtt; w = float_of_int bdp }

let on_ack t ~rtt =
  if rtt > 0 then begin
    let r = float_of_int rtt in
    (* w +/- (|target - rtt| / rtt) packets per ack *)
    t.w <- t.w +. (float_of_int t.mtu *. (t.target -. r) /. r);
    if t.w < float_of_int t.mtu then t.w <- float_of_int t.mtu
  end

let window t = int_of_float t.w
