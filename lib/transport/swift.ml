(* Target delay as a multiple of the base RTT, and the multiplicative
   decrease factor. *)
let target_mult = 1.5

let beta = 0.8

type t = {
  mtu : int;
  target : float; (* ns *)
  mutable w : float; (* bytes *)
  mutable last_decrease : Bfc_engine.Time.t;
}

let create ~mtu ~bdp ~base_rtt =
  {
    mtu;
    target = target_mult *. float_of_int base_rtt;
    w = float_of_int bdp;
    last_decrease = min_int / 2;
  }

let on_ack t ~rtt ~now =
  if rtt > 0 then begin
    let r = float_of_int rtt in
    if r <= t.target then
      (* additive increase: one MTU per RTT, spread over the window's acks *)
      t.w <- t.w +. (float_of_int t.mtu *. float_of_int t.mtu /. t.w)
    else if now - t.last_decrease > rtt then begin
      (* multiplicative decrease proportional to overshoot, once per RTT *)
      let cut = 1.0 -. (beta *. (r -. t.target) /. r) in
      t.w <- t.w *. Float.max 0.3 cut;
      t.last_decrease <- now
    end;
    if t.w < float_of_int t.mtu then t.w <- float_of_int t.mtu
  end

let window t = int_of_float t.w
