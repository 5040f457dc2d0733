(* Tests for the discrete-event engine. *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim

let check = Alcotest.check

(* ------------------------------- Time ------------------------------ *)

let test_time_units () =
  check Alcotest.int "us" 1_000 (Time.us 1.0);
  check Alcotest.int "ms" 1_000_000 (Time.ms 1.0);
  Alcotest.(check (float 1e-9)) "to_us" 2.5 (Time.to_us 2_500)

let test_tx_time () =
  (* 1000 B at 100 Gbps = 8000 bits / 100 bits-per-ns = 80 ns *)
  check Alcotest.int "100G mtu" 80 (Time.tx_time ~gbps:100.0 ~bytes:1000);
  check Alcotest.int "10G mtu" 800 (Time.tx_time ~gbps:10.0 ~bytes:1000);
  check Alcotest.int "min 1ns" 1 (Time.tx_time ~gbps:100.0 ~bytes:1)

(* ------------------------------- Sim ------------------------------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.at sim 30 (fun () -> log := 30 :: !log));
  ignore (Sim.at sim 10 (fun () -> log := 10 :: !log));
  ignore (Sim.at sim 20 (fun () -> log := 20 :: !log));
  ignore (Sim.run_until_idle sim);
  check Alcotest.(list int) "time order" [ 10; 20; 30 ] (List.rev !log);
  check Alcotest.int "clock at last event" 30 (Sim.now sim)

let test_sim_fifo_same_time () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.at sim 5 (fun () -> log := "a" :: !log));
  ignore (Sim.at sim 5 (fun () -> log := "b" :: !log));
  ignore (Sim.at sim 5 (fun () -> log := "c" :: !log));
  ignore (Sim.run_until_idle sim);
  check Alcotest.(list string) "fifo" [ "a"; "b"; "c" ] (List.rev !log)

let test_sim_after_relative () =
  let sim = Sim.create () in
  let seen = ref (-1) in
  ignore
    (Sim.at sim 100 (fun () -> ignore (Sim.after sim 50 (fun () -> seen := Sim.now sim))));
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "relative delay lands at 150" 150 !seen

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.at sim 10 (fun () -> fired := true) in
  check Alcotest.int "pending before" 1 (Sim.pending_events sim);
  Sim.cancel h;
  check Alcotest.int "not pending after" 0 (Sim.pending_events sim);
  ignore (Sim.run_until_idle sim);
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.at sim (i * 10) (fun () -> incr count))
  done;
  ignore (Sim.run sim ~until:55);
  check Alcotest.int "only first five" 5 !count;
  check Alcotest.int "clock parked at until" 55 (Sim.now sim);
  ignore (Sim.run sim ~until:1000);
  check Alcotest.int "rest execute" 10 !count

let test_sim_past_scheduling_rejected () =
  let sim = Sim.create () in
  ignore (Sim.at sim 100 (fun () -> ()));
  ignore (Sim.run_until_idle sim);
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sim.at sim 50 ignore);
       false
     with Invalid_argument _ -> true)

let test_sim_ticker () =
  let sim = Sim.create () in
  let n = ref 0 in
  let tick = Sim.every sim ~period:10 (fun () -> incr n) in
  ignore (Sim.run sim ~until:55);
  check Alcotest.int "5 ticks by 55" 5 !n;
  Sim.stop_ticker tick;
  ignore (Sim.run sim ~until:200);
  check Alcotest.int "stopped" 5 !n

let test_sim_nested_events () =
  (* events scheduling events at the same instant run in FIFO order *)
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.at sim 10 (fun () ->
         log := "outer" :: !log;
         ignore (Sim.after sim 0 (fun () -> log := "inner" :: !log))));
  ignore (Sim.at sim 10 (fun () -> log := "second" :: !log));
  ignore (Sim.run_until_idle sim);
  check Alcotest.(list string) "ordering" [ "outer"; "second"; "inner" ] (List.rev !log)

(* The rank packs the insertion clock above 20 key bits, so event times
   stop at 2^42 ns: the last representable instant is accepted (and still
   ordered), the horizon itself is refused by every scheduling entry
   point and by [run ~until]. *)
let test_sim_rank_clock_horizon () =
  let refused msg f =
    Alcotest.(check bool) msg true (try f (); false with Invalid_argument _ -> true)
  in
  check Alcotest.int "horizon is 2^42 ns" (1 lsl 42) Sim.horizon;
  let last = Sim.horizon - 1 in
  let sim = Sim.create () in
  let cls = Sim.cls_port_tx in
  let log = ref [] in
  Sim.register_class sim ~cls ~state:Sim.No_state ~exec:(fun _ a0 _ -> log := a0 :: !log);
  refused "at" (fun () -> ignore (Sim.at sim Sim.horizon ignore));
  refused "post" (fun () -> Sim.post sim Sim.horizon ~cls ~a0:0 ~a1:0);
  refused "post_token" (fun () -> ignore (Sim.post_token sim Sim.horizon ~cls ~a0:0 ~a1:0));
  refused "every" (fun () -> ignore (Sim.every sim ~period:Sim.horizon ignore));
  refused "run ~until" (fun () -> ignore (Sim.run sim ~until:Sim.horizon));
  refused "min_int (past and wrapping)" (fun () -> Sim.post sim min_int ~cls ~a0:0 ~a1:0);
  Sim.post sim last ~cls ~a0:1 ~a1:0;
  ignore (Sim.after sim 10 (fun () -> Sim.post sim last ~cls ~a0:2 ~a1:0));
  ignore (Sim.run sim ~until:last);
  check Alcotest.(list int) "events at horizon - 1 fire in order" [ 1; 2 ] (List.rev !log);
  check Alcotest.int "clock at the last instant" last (Sim.now sim)

(* Closure handles borrow a queue id only while queued; once an entry
   fires or is cancelled, the id goes to the next event scheduled.
   A [cancel] through the old handle must not reach the newcomer that
   took its id. *)
let test_sim_queue_id_reuse () =
  let sim = Sim.create () in
  let cls = Sim.cls_port_tx in
  let typed = ref 0 in
  Sim.register_class sim ~cls ~state:Sim.No_state ~exec:(fun _ _ _ -> incr typed);
  (* schedule a closure and a typed newcomer after [old] has left the
     queue, poke [old], and check both newcomers still fire *)
  let newcomers what ~poke =
    let fired = ref false in
    ignore (Sim.at sim (Sim.now sim + 5) (fun () -> fired := true));
    Sim.post sim (Sim.now sim + 5) ~cls ~a0:0 ~a1:0;
    let typed0 = !typed in
    let pending = Sim.pending_events sim in
    poke ();
    check Alcotest.int (what ^ ": newcomers pending") pending (Sim.pending_events sim);
    ignore (Sim.run sim ~until:(Sim.now sim + 5));
    Alcotest.(check bool) (what ^ ": closure newcomer fired") true !fired;
    check Alcotest.int (what ^ ": typed newcomer fired") (typed0 + 1) !typed
  in
  let runs = ref 0 in
  let h = Sim.at sim 10 (fun () -> incr runs) in
  ignore (Sim.run sim ~until:10);
  newcomers "fired at" ~poke:(fun () ->
      Sim.cancel h);
  let h = Sim.at sim 30 (fun () -> incr runs) in
  Sim.cancel h;
  (* the cancelled entry left the queue with its id: an event scheduled
     now takes the id and must fire at its own deadline, not at the
     cancelled one's *)
  let early = ref [] in
  ignore (Sim.at sim 35 (fun () -> early := Sim.now sim :: !early));
  ignore (Sim.run sim ~until:30);
  check Alcotest.(list int) "no event fired at the cancelled deadline" [] !early;
  ignore (Sim.run sim ~until:35);
  check Alcotest.(list int) "the later event fired once, on time" [ 35 ] !early;
  newcomers "cancelled at" ~poke:(fun () ->
      Sim.cancel h);
  check Alcotest.int "only the first at ran" 1 !runs;
  let ticks = ref 0 in
  let tk = Sim.every sim ~period:10 (fun () -> incr ticks) in
  ignore (Sim.run sim ~until:(Sim.now sim + 25));
  Sim.stop_ticker tk;
  ignore (Sim.run sim ~until:(Sim.now sim + 10));
  newcomers "stopped ticker" ~poke:(fun () -> Sim.stop_ticker tk);
  check Alcotest.int "ticker stopped after two ticks" 2 !ticks;
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "nothing left pending" 0 (Sim.pending_events sim)

(* A cancelled event leaves the queue at once, so the next event the sim
   runs is the next live one, never the cancelled one. Each check builds
   the schedule afresh and runs it, reading the first firing's time. *)
let test_sim_cancelled_head_leaves () =
  let first_fire build =
    let sim = Sim.create () in
    let first = ref (-1) in
    let note () = if !first < 0 then first := Sim.now sim in
    let cls = Sim.cls_port_tx in
    Sim.register_class sim ~cls ~state:Sim.No_state ~exec:(fun _ _ _ -> note ());
    let tok = Sim.post_token sim 10 ~cls ~a0:0 ~a1:0 in
    ignore (Sim.at sim 20 note);
    Sim.cancel_token sim tok;
    build sim note;
    let pending = Sim.pending_events sim in
    ignore (Sim.run_until_idle sim);
    (!first, pending)
  in
  check Alcotest.int "next event at 20" 20 (fst (first_fire (fun _ _ -> ())));
  check Alcotest.int "closure head at 15" 15
    (fst (first_fire (fun sim note -> ignore (Sim.at sim 15 note))));
  let back, pending = first_fire (fun sim note -> Sim.cancel (Sim.at sim 15 note)) in
  check Alcotest.int "back to 20" 20 back;
  check Alcotest.int "one pending" 1 pending

(* A token is its event's wheel record offset (above bit 31) and that
   record's generation (below). Any token that does not name a pending
   typed event must be a no-op for [cancel_token] and answer false from
   [token_pending]: a stale token whose record a later post reused, the
   firing event's own token, and garbage. Garbage must not read outside
   the wheel's slab either, which a crash would show. *)
let test_sim_token_safety () =
  let sim = Sim.create () in
  let cls = Sim.cls_port_tx in
  let fired = ref [] and self = ref 0 and inside = ref [] in
  Sim.register_class sim ~cls ~state:Sim.No_state ~exec:(fun _ a0 a1 ->
      fired := a0 :: !fired;
      if a1 = 1 then begin
        (* the firing event's own token, then after a post reuses its record *)
        inside := Sim.token_pending sim !self :: !inside;
        Sim.cancel_token sim !self;
        Sim.post sim (Sim.now sim + 5) ~cls ~a0:(a0 + 1) ~a1:0;
        Sim.cancel_token sim !self;
        inside := Sim.token_pending sim !self :: !inside
      end);
  let record tok = tok lsr 31 in
  (* a stale token whose record a later post reused *)
  let old = Sim.post_token sim 10 ~cls ~a0:1 ~a1:0 in
  ignore (Sim.run sim ~until:10);
  let fresh = Sim.post_token sim 20 ~cls ~a0:2 ~a1:0 in
  check Alcotest.int "the later post reuses the record" (record old) (record fresh);
  Sim.cancel_token sim old;
  check Alcotest.bool "stale token: not pending" false (Sim.token_pending sim old);
  check Alcotest.bool "the newcomer is pending" true (Sim.token_pending sim fresh);
  ignore (Sim.run sim ~until:20);
  check Alcotest.(list int) "the newcomer fired" [ 2; 1 ] !fired;
  check Alcotest.bool "fired token: not pending" false (Sim.token_pending sim fresh);
  (* an event's own token, read inside its executor *)
  self := Sim.post_token sim 30 ~cls ~a0:3 ~a1:1;
  ignore (Sim.run sim ~until:40);
  check Alcotest.(list bool) "own token: not pending, before and after a post" [ false; false ]
    !inside;
  check Alcotest.(list int) "the post made inside fired" [ 4; 3; 2; 1 ] !fired;
  check Alcotest.int "no cancellation happened" 0 (Sim.profile sim).Sim.p_cancels;
  (* garbage: every record offset other than the live one's, below the
     slab's end and beyond it, with generations around the offset as
     well as the live one's *)
  let live = Sim.post_token sim 50 ~cls ~a0:5 ~a1:0 in
  let off = record live and g = live land ((1 lsl 31) - 1) in
  let noop what tok =
    if Sim.token_pending sim tok then Alcotest.failf "%s token %d is pending" what tok;
    Sim.cancel_token sim tok;
    if Sim.pending_events sim <> 1 then Alcotest.failf "%s token %d cancelled an event" what tok
  in
  List.iter (noop "constant") [ 0; -1; 1; max_int; min_int; g ];
  for o = 0 to off + 1024 do
    if o <> off then begin
      for d = -16 to 16 do
        noop "offset" ((o lsl 31) lor ((o + d) land ((1 lsl 31) - 1)))
      done;
      noop "offset" ((o lsl 31) lor g)
    end
  done;
  List.iter
    (fun o -> noop "far offset" ((o lsl 31) lor g))
    [ off + (1 lsl 20); 1 lsl 31; (1 lsl 32) - 1 ];
  check Alcotest.bool "the live token survives" true (Sim.token_pending sim live);
  ignore (Sim.run_until_idle sim);
  check Alcotest.(list int) "the live event fired" [ 5; 4; 3; 2; 1 ] !fired;
  check Alcotest.int "still no cancellation" 0 (Sim.profile sim).Sim.p_cancels

let prop_sim_executes_in_order =
  QCheck.Test.make ~name:"random schedules execute in nondecreasing time" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 0 10_000))
    (fun times ->
      let sim = Sim.create () in
      let seen = ref [] in
      List.iter (fun t -> ignore (Sim.at sim t (fun () -> seen := Sim.now sim :: !seen))) times;
      ignore (Sim.run_until_idle sim);
      let s = List.rev !seen in
      List.sort compare s = s && List.length s = List.length times)

let suite =
  [
    ("time units", `Quick, test_time_units);
    ("tx time", `Quick, test_tx_time);
    ("sim ordering", `Quick, test_sim_ordering);
    ("sim fifo same time", `Quick, test_sim_fifo_same_time);
    ("sim after", `Quick, test_sim_after_relative);
    ("sim cancel", `Quick, test_sim_cancel);
    ("sim run until", `Quick, test_sim_run_until);
    ("sim rejects past", `Quick, test_sim_past_scheduling_rejected);
    ("sim ticker", `Quick, test_sim_ticker);
    ("sim nested events", `Quick, test_sim_nested_events);
    ("sim rank-clock horizon", `Quick, test_sim_rank_clock_horizon);
    ("sim queue id reuse", `Quick, test_sim_queue_id_reuse);
    ("sim cancelled head leaves at once", `Quick, test_sim_cancelled_head_leaves);
    ("sim token safety", `Quick, test_sim_token_safety);
    QCheck_alcotest.to_alcotest prop_sim_executes_in_order;
  ]
