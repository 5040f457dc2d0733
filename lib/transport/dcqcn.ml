module Sim = Bfc_engine.Sim

(* The DCQCN paper's settings. *)

(* additive increase step, Gb/s (40 Mb/s) *)
let rai_gbps = 0.04

(* alpha EWMA gain *)
let g = 1.0 /. 256.0

(* alpha decay and rate increase timers, ns *)
let alpha_timer = 55_000

let increase_timer = 55_000

(* bytes per byte-counter increase stage *)
let byte_counter = 10_000_000

(* F: fast-recovery stages before additive increase *)
let fast_recovery_stages = 5

let cnp_interval = 50_000

type t = {
  line : float; (* bytes per ns *)
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
  if st < fast_recovery_stages then
    (* fast recovery: converge to target *)
    t.rc <- (t.rt +. t.rc) /. 2.0
  else if st < 2 * fast_recovery_stages then begin
    (* additive increase *)
    t.rt <- Float.min t.line (t.rt +. bytes_per_ns rai_gbps);
    t.rc <- (t.rt +. t.rc) /. 2.0
  end
  else begin
    (* hyper increase *)
    t.rt <- Float.min t.line (t.rt +. (5.0 *. bytes_per_ns rai_gbps));
    t.rc <- (t.rt +. t.rc) /. 2.0
  end;
  if t.rc > t.line then t.rc <- t.line

let create sim ~line_gbps =
  let line = bytes_per_ns line_gbps in
  let t =
    {
      line;
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
      (Sim.every sim ~period:alpha_timer (fun () ->
           if not t.cnp_seen_since_alpha then t.alpha <- (1.0 -. g) *. t.alpha;
           t.cnp_seen_since_alpha <- false));
  t.incr_tick <-
    Some
      (Sim.every sim ~period:increase_timer (fun () ->
           t.timer_stage <- t.timer_stage + 1;
           increase t));
  t

let on_cnp t =
  t.alpha <- ((1.0 -. g) *. t.alpha) +. g;
  t.cnp_seen_since_alpha <- true;
  t.rt <- t.rc;
  t.rc <- Float.max (t.line /. 1000.0) (t.rc *. (1.0 -. (t.alpha /. 2.0)));
  t.timer_stage <- 0;
  t.byte_stage <- 0;
  t.bytes_since <- 0

let on_sent t ~bytes =
  t.bytes_since <- t.bytes_since + bytes;
  if t.bytes_since >= byte_counter then begin
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
