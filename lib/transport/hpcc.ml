type link_view = {
  mutable ts : Bfc_engine.Time.t;
  mutable tx_bytes : int;
  mutable qlen : int;
}

(* Additive steps between multiplicative updates, and the additive
   increase W_AI in bytes (the HPCC paper's settings). *)
let max_stage = 5

let w_ai = 80.0

type t = {
  eta : float;
  bdp : int;
  base_rtt : Bfc_engine.Time.t;
  mutable w : float;
  mutable w_c : float;
  mutable inc_stage : int;
  mutable last_update_seq : int;
  links : (int, link_view) Hashtbl.t; (* by global link id *)
  mutable have_baseline : bool;
  mutable u : float;
}

let create ~eta ~bdp ~base_rtt =
  {
    eta;
    bdp;
    base_rtt;
    w = float_of_int bdp;
    w_c = float_of_int bdp;
    inc_stage = 0;
    last_update_seq = 0;
    links = Hashtbl.create 8;
    have_baseline = false;
    u = 0.0;
  }

let remember t hops nhops =
  for i = 0 to nhops - 1 do
    let h = hops.(i) in
    let open Bfc_net.Packet in
    match Hashtbl.find_opt t.links h.h_link with
    | Some v ->
      v.ts <- h.h_ts;
      v.tx_bytes <- h.h_tx_bytes;
      v.qlen <- h.h_qlen
    | None ->
      Hashtbl.add t.links h.h_link
        { ts = h.h_ts; tx_bytes = h.h_tx_bytes; qlen = h.h_qlen }
  done

(* MeasureInflight from the HPCC paper: per link,
   u_j = qlen / (B.T) + txRate / B, take the max. *)
let measure t hops nhops =
  let u = ref 0.0 in
  for i = 0 to nhops - 1 do
    let h = hops.(i) in
    let open Bfc_net.Packet in
    match Hashtbl.find_opt t.links h.h_link with
    | None -> ()
    | Some prev ->
      if h.h_ts > prev.ts then begin
        let dt = float_of_int (h.h_ts - prev.ts) in
        let tx_rate = float_of_int (h.h_tx_bytes - prev.tx_bytes) /. dt in
        let b = h.h_gbps /. 8.0 (* bytes per ns *) in
        let bdp_link = b *. float_of_int t.base_rtt in
        let qlen = float_of_int (min h.h_qlen prev.qlen) in
        let u_j = (qlen /. bdp_link) +. (tx_rate /. b) in
        if u_j > !u then u := u_j
      end
  done;
  !u

let compute_wind t ~u ~update_wc =
  if u >= t.eta || t.inc_stage >= max_stage then begin
    let w = (t.w_c /. (u /. t.eta)) +. w_ai in
    if update_wc then begin
      t.inc_stage <- 0;
      t.w_c <- w
    end;
    t.w <- w
  end
  else begin
    let w = t.w_c +. w_ai in
    if update_wc then begin
      t.inc_stage <- t.inc_stage + 1;
      t.w_c <- w
    end;
    t.w <- w
  end;
  if t.w < 64.0 then t.w <- 64.0;
  (* HPCC bounds the window to the BDP plus queue allowance; keep a sane cap
     of 4 BDP so a wild U estimate cannot explode the window. *)
  let cap = 4.0 *. float_of_int t.bdp in
  if t.w > cap then t.w <- cap

let on_ack t ~hops ~nhops ~ack_seq ~snd_nxt =
  if not t.have_baseline then begin
    remember t hops nhops;
    t.have_baseline <- true
  end
  else begin
    let u = measure t hops nhops in
    t.u <- u;
    if u > 0.0 then begin
      let update_wc = ack_seq > t.last_update_seq in
      compute_wind t ~u ~update_wc;
      if update_wc then t.last_update_seq <- snd_nxt
    end;
    remember t hops nhops
  end

let window t = int_of_float t.w

let last_u t = t.u
