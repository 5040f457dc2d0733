module Sim = Bfc_engine.Sim

type params = {
  rai_gbps : float;
  g : float;
  alpha_timer : Bfc_engine.Time.t;
  increase_timer : Bfc_engine.Time.t;
  byte_counter : int;
  fast_recovery_stages : int;
  cnp_interval : Bfc_engine.Time.t;
}

let default_params =
  {
    rai_gbps = 0.04;
    g = 1.0 /. 256.0;
    alpha_timer = 55_000;
    increase_timer = 55_000;
    byte_counter = 10_000_000;
    fast_recovery_stages = 5;
    cnp_interval = 50_000;
  }

type t = {
  p : params;
  line : float; (* bytes per ns *)
  on_rate_change : unit -> unit;
  mutable rc : float; (* current rate, bytes/ns *)
  mutable rt : float; (* target rate *)
  mutable alpha : float;
  mutable timer_stage : int;
  mutable byte_stage : int;
  mutable bytes_since : int;
  mutable cnp_seen_since_alpha : bool;
  mutable alpha_tick : Sim.ticker option;
  mutable incr_tick : Sim.ticker option;
  mutable stopped : bool;
}

let bytes_per_ns gbps = gbps /. 8.0

let rate t = t.rc

let alpha t = t.alpha

let stage t = max t.timer_stage t.byte_stage

let increase t =
  let st = stage t in
  if st < t.p.fast_recovery_stages then
    (* fast recovery: converge to target *)
    t.rc <- (t.rt +. t.rc) /. 2.0
  else if st < 2 * t.p.fast_recovery_stages then begin
    (* additive increase *)
    t.rt <- Float.min t.line (t.rt +. bytes_per_ns t.p.rai_gbps);
    t.rc <- (t.rt +. t.rc) /. 2.0
  end
  else begin
    (* hyper increase *)
    t.rt <- Float.min t.line (t.rt +. (5.0 *. bytes_per_ns t.p.rai_gbps));
    t.rc <- (t.rt +. t.rc) /. 2.0
  end;
  if t.rc > t.line then t.rc <- t.line;
  t.on_rate_change ()

let create sim ~params ~line_gbps ~on_rate_change =
  let line = bytes_per_ns line_gbps in
  let t =
    {
      p = params;
      line;
      on_rate_change;
      rc = line;
      rt = line;
      alpha = 1.0;
      timer_stage = 0;
      byte_stage = 0;
      bytes_since = 0;
      cnp_seen_since_alpha = false;
      alpha_tick = None;
      incr_tick = None;
      stopped = false;
    }
  in
  t.alpha_tick <-
    Some
      (Sim.every sim ~period:params.alpha_timer (fun () ->
           if not t.cnp_seen_since_alpha then t.alpha <- (1.0 -. params.g) *. t.alpha;
           t.cnp_seen_since_alpha <- false));
  t.incr_tick <-
    Some
      (Sim.every sim ~period:params.increase_timer (fun () ->
           t.timer_stage <- t.timer_stage + 1;
           increase t));
  t

let on_cnp t =
  t.alpha <- ((1.0 -. t.p.g) *. t.alpha) +. t.p.g;
  t.cnp_seen_since_alpha <- true;
  t.rt <- t.rc;
  t.rc <- Float.max (t.line /. 1000.0) (t.rc *. (1.0 -. (t.alpha /. 2.0)));
  t.timer_stage <- 0;
  t.byte_stage <- 0;
  t.bytes_since <- 0;
  t.on_rate_change ()

let on_sent t ~bytes =
  t.bytes_since <- t.bytes_since + bytes;
  if t.bytes_since >= t.p.byte_counter then begin
    t.bytes_since <- 0;
    t.byte_stage <- t.byte_stage + 1;
    increase t
  end

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Option.iter Sim.stop_ticker t.alpha_tick;
    Option.iter Sim.stop_ticker t.incr_tick
  end
