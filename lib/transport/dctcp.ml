type t = {
  mtu : int;
  g : float;
  mutable w : float;
  mutable alpha : float;
  mutable acked_bytes : int;
  mutable marked_bytes : int;
  mutable window_end : int; (* alpha update when snd_una passes this seq *)
  mutable ss : bool;
}

let create ~mtu ~bdp ~slow_start ~g =
  {
    mtu;
    g;
    w = (if slow_start then float_of_int (10 * mtu) else float_of_int bdp);
    alpha = 0.0;
    acked_bytes = 0;
    marked_bytes = 0;
    window_end = 0;
    ss = slow_start;
  }

let clamp t = if t.w < float_of_int t.mtu then t.w <- float_of_int t.mtu

let on_ack t ~acked ~marked ~snd_una ~snd_nxt =
  if acked > 0 then begin
    t.acked_bytes <- t.acked_bytes + acked;
    if marked then t.marked_bytes <- t.marked_bytes + acked;
    if t.ss then begin
      if marked then t.ss <- false else t.w <- t.w +. float_of_int acked
    end
    else
      (* additive increase: one MTU per window *)
      t.w <- t.w +. (float_of_int t.mtu *. float_of_int acked /. t.w);
    if snd_una >= t.window_end then begin
      (* one window's worth of feedback gathered *)
      let f =
        if t.acked_bytes = 0 then 0.0
        else float_of_int t.marked_bytes /. float_of_int t.acked_bytes
      in
      t.alpha <- ((1.0 -. t.g) *. t.alpha) +. (t.g *. f);
      if t.marked_bytes > 0 then t.w <- t.w *. (1.0 -. (t.alpha /. 2.0));
      t.acked_bytes <- 0;
      t.marked_bytes <- 0;
      t.window_end <- snd_nxt
    end;
    clamp t
  end

let on_timeout t =
  t.ss <- false;
  t.w <- float_of_int t.mtu

let window t = int_of_float t.w

let alpha t = t.alpha
