(* Tests for the BFC core: flow table, pause counters, DQA, thresholds,
   the dataplane state machine end-to-end, deadlock analysis and the
   analytic models. *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Flow = Bfc_net.Flow
module Packet = Bfc_net.Packet
module Node = Bfc_net.Node
module Port = Bfc_net.Port
module Topology = Bfc_net.Topology
module Switch = Bfc_switch.Switch
module Flow_table = Bfc_core.Flow_table
module Pause_counter = Bfc_core.Pause_counter
module Dqa = Bfc_core.Dqa
module Threshold = Bfc_core.Threshold
module Dataplane = Bfc_core.Dataplane
module Deadlock = Bfc_core.Deadlock
module Model = Bfc_core.Model
module Active_flows = Bfc_core.Active_flows

let check = Alcotest.check

(* ---------------------------- Flow table --------------------------- *)

(* Tables in these tests use a sticky window of [ft_sticky] ns. *)
let ft_sticky = 10

let ft_create = Flow_table.create ~sticky:ft_sticky

let test_flow_table_sizing () =
  let ft = ft_create ~egresses:4 ~queues_per_port:32 ~mult:100 in
  (* 32 * 100 = 3200, rounded up to the next power of two for mask lookup *)
  check Alcotest.int "slots per port" 4096 (Flow_table.slots_per_port ft)

(* Same slot: a write through one lookup reads back through another. *)
let test_flow_table_same_slot_same_entry () =
  let ft = ft_create ~egresses:2 ~queues_per_port:8 ~mult:10 in
  let q ~egress h = Flow_table.q ft (Flow_table.slot ft ~egress ~fid_hash:h ~now:0) in
  Flow_table.set_q ft (Flow_table.slot ft ~egress:0 ~fid_hash:5 ~now:0) 3;
  check Alcotest.int "same hash same slot" 3 (q ~egress:0 5);
  check Alcotest.int "index collision shares slot" 3 (q ~egress:0 (5 + 128));
  check Alcotest.int "different egress different slot" (-1) (q ~egress:1 5)

let test_flow_table_occupied () =
  let ft = ft_create ~egresses:1 ~queues_per_port:4 ~mult:4 in
  check Alcotest.int "none" 0 (Flow_table.occupied ft ~egress:0);
  Flow_table.set_size ft (Flow_table.slot ft ~egress:0 ~fid_hash:1 ~now:0) 2;
  Flow_table.set_size ft (Flow_table.slot ft ~egress:0 ~fid_hash:2 ~now:0) 1;
  check Alcotest.int "two occupied" 2 (Flow_table.occupied ft ~egress:0);
  check Alcotest.int "three resident" 3 (Flow_table.resident ft ~egress:0)

let test_flow_table_egress_out_of_range () =
  let ft = ft_create ~egresses:2 ~queues_per_port:4 ~mult:4 in
  let err = Invalid_argument "Flow_table.slot: egress out of range" in
  Alcotest.check_raises "egress -1" err (fun () ->
      ignore (Flow_table.slot ft ~egress:(-1) ~fid_hash:3 ~now:0));
  Alcotest.check_raises "egress = egresses" err (fun () ->
      ignore (Flow_table.slot ft ~egress:2 ~fid_hash:3 ~now:0));
  let err = Invalid_argument "Flow_table: egress out of range" in
  Alcotest.check_raises "resident" err (fun () -> ignore (Flow_table.resident ft ~egress:(-1)));
  Alcotest.check_raises "occupied" err (fun () -> ignore (Flow_table.occupied ft ~egress:2))

(* The egress sweeps read an untouched table as empty without adding to
   it, and a slot's first lookup reads the initial state. *)
let test_flow_table_untouched_reads_empty () =
  let ft = ft_create ~egresses:4 ~queues_per_port:32 ~mult:100 in
  let words () = Obj.reachable_words (Obj.repr ft) in
  let fresh = words () in
  for egress = 0 to 3 do
    check Alcotest.int "occupied" 0 (Flow_table.occupied ft ~egress);
    check Alcotest.int "resident" 0 (Flow_table.resident ft ~egress)
  done;
  check Alcotest.int "nothing made by the sweeps" fresh (words ());
  for egress = 0 to 3 do
    List.iter
      (fun h ->
        let i = Flow_table.slot ft ~egress ~fid_hash:h ~now:0 in
        check Alcotest.int "q" (-1) (Flow_table.q ft i);
        check Alcotest.int "size" 0 (Flow_table.size ft i);
        check Alcotest.int "last" min_int (Flow_table.last ft i))
      [ 0; 1; 7; 8; 4095; -1; 123_456_789 ]
  done

(* [reset] after the table has grown: every slot reads the initial state,
   every egress reads empty, and the table is back to its fresh size. *)
let test_flow_table_reset_restores_fresh () =
  let ft = ft_create ~egresses:3 ~queues_per_port:4 ~mult:64 in
  let fresh = Obj.reachable_words (Obj.repr ft) in
  for e = 0 to 2 do
    for h = 0 to 99 do
      let i = Flow_table.slot ft ~egress:e ~fid_hash:h ~now:0 in
      Flow_table.set_q ft i 2;
      Flow_table.set_size ft i 4;
      Flow_table.set_last ft i 99
    done
  done;
  if Flow_table.capacity ft <= 64 then Alcotest.fail "300 live slots did not grow the table";
  Flow_table.reset ft;
  check Alcotest.int "fresh footprint" fresh (Obj.reachable_words (Obj.repr ft));
  for e = 0 to 2 do
    check Alcotest.int "resident" 0 (Flow_table.resident ft ~egress:e);
    check Alcotest.int "occupied" 0 (Flow_table.occupied ft ~egress:e);
    for h = 0 to 99 do
      let i = Flow_table.slot ft ~egress:e ~fid_hash:h ~now:0 in
      check Alcotest.int "q" (-1) (Flow_table.q ft i);
      check Alcotest.int "size" 0 (Flow_table.size ft i);
      check Alcotest.int "last" min_int (Flow_table.last ft i)
    done
  done

(* Four slots per egress: the keys of five egresses sit side by side in
   the table, and each egress still reads only its own. *)
let test_flow_table_small_egresses () =
  let ft = ft_create ~egresses:5 ~queues_per_port:1 ~mult:3 in
  check Alcotest.int "slots per port" 4 (Flow_table.slots_per_port ft);
  for e = 0 to 4 do
    for h = 0 to 3 do
      Flow_table.set_size ft (Flow_table.slot ft ~egress:e ~fid_hash:h ~now:0) (e + 1)
    done
  done;
  for e = 0 to 4 do
    check Alcotest.int "occupied" 4 (Flow_table.occupied ft ~egress:e);
    check Alcotest.int "resident" (4 * (e + 1)) (Flow_table.resident ft ~egress:e)
  done

(* A purge or a growth while packets are resident keeps every non-vacant
   slot: [resident] and each slot's fields are unchanged on every egress. *)
let test_flow_table_rebuild_keeps_resident () =
  let ft = ft_create ~egresses:4 ~queues_per_port:4 ~mult:64 in
  let live = List.init 40 (fun k -> (k mod 4, 1000 + (7 * k))) in
  List.iteri
    (fun k (egress, h) ->
      let i = Flow_table.slot ft ~egress ~fid_hash:h ~now:0 in
      Flow_table.set_q ft i (k mod 3);
      Flow_table.set_size ft i (k + 1);
      Flow_table.set_last ft i 0)
    live;
  let before = List.init 4 (fun egress -> Flow_table.resident ft ~egress) in
  let cap = Flow_table.capacity ft and purges = Flow_table.purges ft in
  (* vacant lookups at a time past the window: purges first, then growth
     once the live slots fill more than a quarter *)
  for h = 0 to 499 do
    ignore (Flow_table.slot ft ~egress:(h mod 4) ~fid_hash:h ~now:(ft_sticky + 1))
  done;
  if Flow_table.purges ft = purges then Alcotest.fail "no purge ran";
  if Flow_table.capacity ft = cap then Alcotest.fail "the table did not grow";
  check Alcotest.(list int) "resident" before
    (List.init 4 (fun egress -> Flow_table.resident ft ~egress));
  List.iteri
    (fun k (egress, h) ->
      let i = Flow_table.slot ft ~egress ~fid_hash:h ~now:(ft_sticky + 1) in
      check Alcotest.int "q" (k mod 3) (Flow_table.q ft i);
      check Alcotest.int "size" (k + 1) (Flow_table.size ft i);
      check Alcotest.int "last" 0 (Flow_table.last ft i))
    live

(* The table against a per-slot record model. Each step writes one field
   of a random (egress, hash) slot or moves the clock forward, taking the
   index afresh for every access. The model forgets a slot as soon as it
   turns vacant; after every step every slot reads back all three fields
   as the model says, and so do the egress sweeps. [reset] restores every
   slot to its initial state. *)
type model_slot = { mutable m_q : int; mutable m_size : int; mutable m_last : int }

let ft_egresses = 3

let ft_slots = 16 (* 4 queues x 4, already a power of two *)

let prop_flow_table_matches_model =
  QCheck.Test.make ~name:"flow table matches per-slot record model" ~count:200
    QCheck.(
      list
        (quad (int_range 0 (ft_egresses - 1)) (int_range (-1000) 1000) (int_range 0 3)
           (int_range (-5) 50)))
    (fun ops ->
      let ft = ft_create ~egresses:ft_egresses ~queues_per_port:4 ~mult:4 in
      let now = ref 0 in
      let fresh _ = { m_q = -1; m_size = 0; m_last = min_int } in
      let model = Array.init ft_egresses (fun _ -> Array.init ft_slots fresh) in
      let model_slot egress h = model.(egress).(((h mod ft_slots) + ft_slots) mod ft_slots) in
      let forget_vacant () =
        Array.iter
          (Array.iter (fun m ->
               if m.m_size = 0 && (m.m_q < 0 || !now - m.m_last > ft_sticky) then begin
                 m.m_q <- -1;
                 m.m_last <- min_int
               end))
          model
      in
      let slot egress h = Flow_table.slot ft ~egress ~fid_hash:h ~now:!now in
      let agrees egress h =
        let m = model_slot egress h in
        Flow_table.q ft (slot egress h) = m.m_q
        && Flow_table.size ft (slot egress h) = m.m_size
        && Flow_table.last ft (slot egress h) = m.m_last
      in
      let all_agree () =
        List.for_all
          (fun egress ->
            List.for_all (agrees egress) (List.init ft_slots Fun.id)
            && Flow_table.occupied ft ~egress
               = Array.fold_left (fun a m -> if m.m_size > 0 then a + 1 else a) 0 model.(egress)
            && Flow_table.resident ft ~egress
               = Array.fold_left (fun a m -> a + m.m_size) 0 model.(egress))
          (List.init ft_egresses Fun.id)
      in
      let step_ok (egress, h, field, v) =
        let m = model_slot egress h in
        (match field with
        | 0 ->
          Flow_table.set_q ft (slot egress h) v;
          m.m_q <- v
        | 1 ->
          Flow_table.set_size ft (slot egress h) v;
          m.m_size <- v
        | 2 ->
          Flow_table.set_last ft (slot egress h) v;
          m.m_last <- v
        | _ -> now := !now + abs v);
        forget_vacant ();
        all_agree ()
      in
      let ops_ok = List.for_all step_ok ops in
      Flow_table.reset ft;
      Array.iteri (fun e _ -> model.(e) <- Array.init ft_slots fresh) model;
      ops_ok && all_agree ())

let prop_flow_table_aliasing =
  QCheck.Test.make ~name:"flow table hashes congruent mod slots share a slot" ~count:300
    QCheck.(triple (int_range 0 (ft_egresses - 1)) int (int_range (-1000) 1000))
    (fun (egress, h, k) ->
      let ft = ft_create ~egresses:ft_egresses ~queues_per_port:4 ~mult:4 in
      Flow_table.set_size ft (Flow_table.slot ft ~egress ~fid_hash:h ~now:0) 1;
      let h' = h + (k * Flow_table.slots_per_port ft) in
      Flow_table.size ft (Flow_table.slot ft ~egress ~fid_hash:h' ~now:0) = 1)

let prop_flow_table_egresses_disjoint =
  QCheck.Test.make ~name:"flow table egresses never share a slot" ~count:300
    QCheck.(
      quad (int_range 0 (ft_egresses - 1)) (int_range 0 (ft_egresses - 1)) int int)
    (fun (e1, e2, h1, h2) ->
      QCheck.assume (e1 <> e2);
      let ft = ft_create ~egresses:ft_egresses ~queues_per_port:4 ~mult:4 in
      Flow_table.set_size ft (Flow_table.slot ft ~egress:e1 ~fid_hash:h1 ~now:0) 1;
      Flow_table.size ft (Flow_table.slot ft ~egress:e2 ~fid_hash:h2 ~now:0) = 0)

(* -------------------------- Pause counter -------------------------- *)

let test_pause_counter_edges () =
  let pc = Pause_counter.create ~ingresses:2 ~max_upstream_q:8 in
  check
    (Alcotest.testable (fun fmt _ -> Format.fprintf fmt "edge") ( = ))
    "0->1 pauses" Pause_counter.Went_up
    (Pause_counter.incr pc ~ingress:0 ~upstream_q:3);
  Alcotest.(check bool) "paused" true (Pause_counter.paused pc ~ingress:0 ~upstream_q:3);
  Alcotest.(check bool) "1->2 silent" true
    (Pause_counter.incr pc ~ingress:0 ~upstream_q:3 = Pause_counter.No_change);
  Alcotest.(check bool) "2->1 silent" true
    (Pause_counter.decr pc ~ingress:0 ~upstream_q:3 = Pause_counter.No_change);
  Alcotest.(check bool) "1->0 resumes" true
    (Pause_counter.decr pc ~ingress:0 ~upstream_q:3 = Pause_counter.Went_down);
  Alcotest.(check bool) "unpaused" false (Pause_counter.paused pc ~ingress:0 ~upstream_q:3)

let test_pause_counter_underflow () =
  let pc = Pause_counter.create ~ingresses:1 ~max_upstream_q:4 in
  Alcotest.check_raises "decr at zero" (Invalid_argument "Pause_counter.decr: counter already zero")
    (fun () -> ignore (Pause_counter.decr pc ~ingress:0 ~upstream_q:0))

let test_pause_counter_bitmap () =
  let pc = Pause_counter.create ~ingresses:1 ~max_upstream_q:8 in
  ignore (Pause_counter.incr pc ~ingress:0 ~upstream_q:1);
  ignore (Pause_counter.incr pc ~ingress:0 ~upstream_q:5);
  check Alcotest.(list int) "paused set" [ 1; 5 ] (Pause_counter.paused_queues pc ~ingress:0)

let prop_pause_counter_invariant =
  QCheck.Test.make ~name:"pause counter total equals outstanding increments" ~count:200
    QCheck.(list (pair (int_range 0 3) (int_range 0 7)))
    (fun ops ->
      let pc = Pause_counter.create ~ingresses:4 ~max_upstream_q:8 in
      let outstanding = ref [] in
      let n = ref 0 in
      List.iter
        (fun (ingress, upstream_q) ->
          (* randomly interleave: even ops increment, odd pop one outstanding *)
          if !n mod 3 < 2 then begin
            ignore (Pause_counter.incr pc ~ingress ~upstream_q);
            outstanding := (ingress, upstream_q) :: !outstanding
          end
          else begin
            match !outstanding with
            | (i, q) :: rest ->
              ignore (Pause_counter.decr pc ~ingress:i ~upstream_q:q);
              outstanding := rest
            | [] -> ()
          end;
          incr n)
        ops;
      Pause_counter.total pc = List.length !outstanding)

(* -------------------------------- DQA ------------------------------ *)

let test_dqa_prefers_empty () =
  let rng = Bfc_util.Rng.create 1 in
  let d = Dqa.create ~egresses:1 ~queues:4 ~policy:Dqa.Dynamic ~rng in
  let q1 = Dqa.assign d ~egress:0 ~fid_hash:100 in
  Dqa.mark_occupied d ~egress:0 ~queue:q1;
  let q2 = Dqa.assign d ~egress:0 ~fid_hash:200 in
  Alcotest.(check bool) "distinct queues while available" true (q1 <> q2);
  Dqa.mark_occupied d ~egress:0 ~queue:q2;
  check Alcotest.int "two empty left" 2 (Dqa.empty_count d ~egress:0)

let test_dqa_random_fallback_in_range () =
  let rng = Bfc_util.Rng.create 2 in
  let d = Dqa.create ~egresses:1 ~queues:3 ~policy:Dqa.Dynamic ~rng in
  for q = 0 to 2 do
    Dqa.mark_occupied d ~egress:0 ~queue:q
  done;
  for i = 0 to 50 do
    let q = Dqa.assign d ~egress:0 ~fid_hash:i in
    Alcotest.(check bool) "in range" true (q >= 0 && q < 3)
  done

let test_dqa_stochastic_static () =
  let rng = Bfc_util.Rng.create 3 in
  let d = Dqa.create ~egresses:1 ~queues:8 ~policy:Dqa.Stochastic ~rng in
  check Alcotest.int "hash mod queues" (13 mod 8) (Dqa.assign d ~egress:0 ~fid_hash:13);
  check Alcotest.int "same hash same queue" (Dqa.assign d ~egress:0 ~fid_hash:13)
    (Dqa.assign d ~egress:0 ~fid_hash:13)

let test_dqa_single () =
  let rng = Bfc_util.Rng.create 4 in
  let d = Dqa.create ~egresses:1 ~queues:8 ~policy:Dqa.Single ~rng in
  check Alcotest.int "always 0" 0 (Dqa.assign d ~egress:0 ~fid_hash:4242)

let prop_dqa_no_sharing_when_flows_fit =
  QCheck.Test.make ~name:"dynamic assignment never shares while queues remain" ~count:100
    QCheck.(int_range 1 16)
    (fun n_flows ->
      let rng = Bfc_util.Rng.create 5 in
      let d = Dqa.create ~egresses:1 ~queues:16 ~policy:Dqa.Dynamic ~rng in
      let used = Hashtbl.create 16 in
      let ok = ref true in
      for i = 1 to n_flows do
        let q = Dqa.assign d ~egress:0 ~fid_hash:(i * 131) in
        if Hashtbl.mem used q then ok := false;
        Hashtbl.replace used q ();
        Dqa.mark_occupied d ~egress:0 ~queue:q
      done;
      !ok)

(* ----------------------------- Threshold --------------------------- *)

let test_threshold_formula () =
  (* HRTT 2us at 100G: 1-hop BDP = 2000ns x 12.5 B/ns = 25 KB *)
  check Alcotest.int "N=1" 25_000 (Threshold.bytes ~hrtt:2000 ~gbps:100.0 ~n_active:1 ~factor:1.0);
  check Alcotest.int "N=2 halves" 12_500
    (Threshold.bytes ~hrtt:2000 ~gbps:100.0 ~n_active:2 ~factor:1.0);
  check Alcotest.int "N=0 clamps to 1" 25_000
    (Threshold.bytes ~hrtt:2000 ~gbps:100.0 ~n_active:0 ~factor:1.0);
  check Alcotest.int "factor scales" 50_000
    (Threshold.bytes ~hrtt:2000 ~gbps:100.0 ~n_active:1 ~factor:2.0)

let test_threshold_table_matches () =
  let tbl = Threshold.table ~hrtt:2000 ~gbps:100.0 ~max_active:32 ~factor:1.0 in
  for n = 1 to 32 do
    check Alcotest.int
      (Printf.sprintf "table n=%d" n)
      (Threshold.bytes ~hrtt:2000 ~gbps:100.0 ~n_active:n ~factor:1.0)
      (Threshold.lookup tbl ~n_active:n)
  done;
  check Alcotest.int "clamps above" (Threshold.lookup tbl ~n_active:32)
    (Threshold.lookup tbl ~n_active:1000)

(* -------------------------- Dataplane e2e -------------------------- *)

(* Two switches in series with one sender and receiver; flood the second
   hop so the first hop's queue is paused and then resumed. *)
let mk_chain () =
  let sim = Sim.create () in
  let b = Topology.Builder.create sim in
  let s0 = Topology.Builder.add_host b ~name:"s0" in
  let s1 = Topology.Builder.add_host b ~name:"s1" in
  let sw1 = Topology.Builder.add_switch b ~name:"sw1" in
  let sw2 = Topology.Builder.add_switch b ~name:"sw2" in
  let r = Topology.Builder.add_host b ~name:"r" in
  Topology.Builder.link b s0 sw1 ~gbps:100.0 ~prop:(Time.us 1.0);
  Topology.Builder.link b s1 sw2 ~gbps:100.0 ~prop:(Time.us 1.0);
  Topology.Builder.link b sw1 sw2 ~gbps:100.0 ~prop:(Time.us 1.0);
  Topology.Builder.link b sw2 r ~gbps:100.0 ~prop:(Time.us 1.0);
  let t = Topology.Builder.finish b in
  (sim, t, s0, s1, sw1, sw2, r)

let attach_bfc sim t sw_id =
  let cfg = { Switch.default_config with Switch.queues_per_port = 8 } in
  let route sw ~in_port:_ pkt =
    (Topology.candidates t ~node:(Switch.node_id sw) ~dst:(Packet.dst pkt)).(0)
  in
  let sw =
    Switch.create ~sim ~node:(Topology.node t sw_id) ~ports:(Topology.ports t sw_id) ~config:cfg
      ~route ()
  in
  let dp = Dataplane.attach sw { Dataplane.default_config with Dataplane.max_upstream_q = 16 } in
  (sw, dp)

let test_dataplane_pause_resume_cycle () =
  let sim, t, s0, s1, sw1_id, sw2_id, r = mk_chain () in
  let _sw1, dp1 = attach_bfc sim t sw1_id in
  let _sw2, dp2 = attach_bfc sim t sw2_id in
  (* hosts: raw senders; r absorbs; s0/s1 count pauses *)
  (Topology.node t r).Node.handler <- (fun ~in_port:_ _ -> ());
  (Topology.node t s0).Node.handler <- (fun ~in_port:_ _ -> ());
  (Topology.node t s1).Node.handler <- (fun ~in_port:_ _ -> ());
  let f0 = Flow.make ~id:100 ~src:s0 ~dst:r ~size:1_000_000 ~arrival:0 () in
  let f1 = Flow.make ~id:101 ~src:s1 ~dst:r ~size:1_000_000 ~arrival:0 () in
  (* both flows blast 200 packets at line rate; they collide at sw2->r *)
  let blast src f =
    let port = (Topology.ports t src).(0) in
    let k = ref 0 in
    let rec send () =
      if !k < 200 then begin
        if not (Port.busy port) then begin
          let p = Packet.data ~flow:f ~seq:(!k * 1000) ~payload:1000 () in
          Packet.set_upstream_q p 1;
          (* pretend NIC queue 1 *)
          Port.send port p;
          incr k
        end;
        ignore (Sim.after sim 84 send)
      end
    in
    send ()
  in
  blast s0 f0;
  blast s1 f1;
  ignore (Sim.run sim ~until:(Time.ms 2.0));
  let st2 = Dataplane.stats dp2 in
  Alcotest.(check bool) "sw2 paused upstream" true (st2.Dataplane.pauses_sent > 0);
  check Alcotest.int "every pause resumed" st2.Dataplane.pauses_sent st2.Dataplane.resumes_sent;
  check Alcotest.int "pause counters drain to zero" 0
    (Pause_counter.total (Dataplane.pause_counters dp2));
  check Alcotest.int "sw1 counters drain too" 0
    (Pause_counter.total (Dataplane.pause_counters dp1))

let test_dataplane_threshold_tracks_n_active () =
  let sim, t, _s0, _s1, sw1_id, _sw2_id, _r = mk_chain () in
  let sw1, dp1 = attach_bfc sim t sw1_id in
  ignore sw1;
  (* empty egress: N_active 0 -> Th = full 1-hop BDP (HRTT 2us @100G) *)
  check Alcotest.int "Th at idle" 25_000 (Dataplane.threshold dp1 ~egress:0)

let test_dataplane_classify_separates_flows () =
  let sim, t, s0, _s1, sw1_id, _sw2_id, r = mk_chain () in
  let sw1, _dp1 = attach_bfc sim t sw1_id in
  (* deliver two different flows' packets directly into sw1 and check they
     land in different queues (dynamic assignment) *)
  (Topology.node t r).Node.handler <- (fun ~in_port:_ _ -> ());
  let deliver f =
    let p = Packet.data ~flow:f ~seq:0 ~payload:1000 () in
    Packet.set_upstream_q p 0;
    Node.deliver (Topology.node t sw1_id) ~in_port:0 p
  in
  let fa = Flow.make ~id:201 ~src:s0 ~dst:r ~size:10_000 ~arrival:0 () in
  let fb = Flow.make ~id:202 ~src:s0 ~dst:r ~size:10_000 ~arrival:0 () in
  deliver fa;
  deliver fb;
  (* the egress to sw2 now holds 2 packets; with dynamic DQA they are in two
     distinct queues *)
  let egress = ref (-1) in
  Array.iteri
    (fun i p -> if (Port.peer p).Node.id <> s0 then egress := i)
    (Topology.ports t sw1_id);
  ignore (Sim.run sim ~until:50);
  (* one may already be serializing; n_active counts the one still queued *)
  Alcotest.(check bool) "no sharing" true (Switch.n_active sw1 ~egress:!egress <= 2)

(* Paper §3.3.2 under sampling: a queue assignment made by an unsampled
   packet holds for the sticky window, through any purge of the table, and
   frees once the slot has sat idle past the window. *)
let test_dataplane_unsampled_assignment_sticky () =
  let sim, t, s0, _s1, sw1_id, _sw2_id, r = mk_chain () in
  let cfg = { Switch.default_config with Switch.queues_per_port = 8 } in
  let route sw ~in_port:_ pkt =
    (Topology.candidates t ~node:(Switch.node_id sw) ~dst:(Packet.dst pkt)).(0)
  in
  let sw =
    Switch.create ~sim ~node:(Topology.node t sw1_id) ~ports:(Topology.ports t sw1_id) ~config:cfg
      ~route ()
  in
  let dp = Dataplane.attach sw { Dataplane.default_config with Dataplane.sampling = 0.0 } in
  let sticky = Threshold.sticky_window sw ~mult:Dataplane.default_config.Dataplane.sticky_hrtt_mult in
  (Topology.node t r).Node.handler <- (fun ~in_port:_ _ -> ());
  let f = Flow.make ~id:301 ~src:s0 ~dst:r ~size:10_000 ~arrival:0 () in
  let p = Packet.data ~flow:f ~seq:0 ~payload:1000 () in
  Node.deliver (Topology.node t sw1_id) ~in_port:0 p;
  Alcotest.(check bool) "unsampled" false (Packet.bp_sampled p);
  let egress = ref (-1) in
  Array.iteri (fun i p -> if (Port.peer p).Node.id <> s0 then egress := i) (Topology.ports t sw1_id);
  let ft = Dataplane.flow_table dp in
  let lookup now = Flow_table.slot ft ~egress:!egress ~fid_hash:(Flow.hash f.Flow.id) ~now in
  let i = lookup 0 in
  let q = Flow_table.q ft i in
  Alcotest.(check bool) "assigned a queue" true (q >= 0);
  check Alcotest.int "the assignment is a touch" 0 (Flow_table.last ft i);
  (* other flows' lookups inside the window purge the vacant slots *)
  for h = 1 to 400 do
    ignore
      (Flow_table.slot ft ~egress:!egress ~fid_hash:(Flow.hash f.Flow.id + h) ~now:(sticky / 2))
  done;
  Alcotest.(check bool) "purged" true (Flow_table.purges ft > 0);
  let i = lookup sticky in
  check Alcotest.int "held through the window and the purges" q (Flow_table.q ft i);
  let i = lookup (sticky + 1) in
  check Alcotest.int "idle past the window: freed" (-1) (Flow_table.q ft i)

(* ------------------------------ Deadlock --------------------------- *)

let test_deadlock_clos_acyclic () =
  let sim = Sim.create () in
  let cl = Topology.clos sim ~spines:2 ~tors:3 ~hosts_per_tor:2 ~gbps:100.0 ~prop:1000 in
  let g = Deadlock.build cl.Topology.t in
  Alcotest.(check bool) "clos has edges" true (Deadlock.n_edges g > 0);
  Alcotest.(check bool) "clos acyclic" false (Deadlock.has_cycle g);
  check Alcotest.int "nothing to elide" 0 (List.length (Deadlock.dangerous_edges g))

let test_deadlock_synthetic_cycle () =
  let g = Deadlock.create ~n:3 in
  Deadlock.add_edge g ~src:0 ~dst:1;
  Deadlock.add_edge g ~src:1 ~dst:2;
  Alcotest.(check bool) "no cycle yet" false (Deadlock.has_cycle g);
  Deadlock.add_edge g ~src:2 ~dst:0;
  Alcotest.(check bool) "cycle" true (Deadlock.has_cycle g);
  check Alcotest.int "all three edges dangerous" 3 (List.length (Deadlock.dangerous_edges g));
  match Deadlock.find_cycle g with
  | Some c -> Alcotest.(check bool) "witness length 3" true (List.length c = 3)
  | None -> Alcotest.fail "expected witness"

let test_deadlock_dedup_edges () =
  let g = Deadlock.create ~n:2 in
  Deadlock.add_edge g ~src:0 ~dst:1;
  Deadlock.add_edge g ~src:0 ~dst:1;
  check Alcotest.int "deduped" 1 (Deadlock.n_edges g)

let test_deadlock_ring_filter () =
  let sim = Sim.create () in
  let b = Topology.Builder.create sim in
  let n = 5 in
  let sws = Array.init n (fun i -> Topology.Builder.add_switch b ~name:(Printf.sprintf "r%d" i)) in
  Array.iteri
    (fun i sw ->
      let h = Topology.Builder.add_host b ~name:(Printf.sprintf "h%d" i) in
      Topology.Builder.link b h sw ~gbps:100.0 ~prop:1000)
    sws;
  for i = 0 to n - 1 do
    Topology.Builder.link b sws.(i) sws.((i + 1) mod n) ~gbps:100.0 ~prop:1000
  done;
  let t = Topology.Builder.finish b in
  let g = Deadlock.build t in
  Alcotest.(check bool) "ring cyclic" true (Deadlock.has_cycle g);
  let dangerous = Deadlock.dangerous_edges g in
  Alcotest.(check bool) "has dangerous edges" true (dangerous <> []);
  (* the filter must disallow exactly the dangerous edges *)
  let filter = Deadlock.make_filter t g ~sw:sws.(0) in
  let any_blocked = ref false in
  let ports0 = Topology.ports t sws.(0) in
  for i = 0 to Array.length ports0 - 1 do
    for j = 0 to Array.length ports0 - 1 do
      if i <> j && not (filter ~in_port:i ~egress:j) then any_blocked := true
    done
  done;
  Alcotest.(check bool) "filter blocks something on the ring" true !any_blocked

let prop_deadlock_random_dag_acyclic =
  QCheck.Test.make ~name:"graphs with forward-only edges are acyclic" ~count:100
    QCheck.(list (pair (int_range 0 19) (int_range 0 19)))
    (fun pairs ->
      let g = Deadlock.create ~n:20 in
      List.iter
        (fun (a, b) -> if a < b then Deadlock.add_edge g ~src:a ~dst:b)
        pairs;
      not (Deadlock.has_cycle g))

(* Naive reachability model: a cycle exists iff some vertex reaches itself
   through at least one edge. Quadratic, but obviously correct. *)
let model_has_cycle n edges =
  let adj = Array.make n [] in
  List.iter (fun (a, b) -> if not (List.mem b adj.(a)) then adj.(a) <- b :: adj.(a)) edges;
  let reaches src target =
    let seen = Array.make n false in
    let rec go u =
      List.exists
        (fun v ->
          v = target
          || (not seen.(v))
             && begin
                  seen.(v) <- true;
                  go v
                end)
        adj.(u)
    in
    go src
  in
  List.exists (fun v -> reaches v v) (List.init n (fun i -> i))

(* Self-edges are filtered: a port never feeds itself in the domain. *)
let random_graph pairs =
  let edges = List.filter (fun (a, b) -> a <> b) pairs in
  let g = Deadlock.create ~n:12 in
  List.iter (fun (a, b) -> Deadlock.add_edge g ~src:a ~dst:b) edges;
  (g, edges)

let prop_deadlock_matches_model =
  QCheck.Test.make ~name:"has_cycle agrees with naive DFS model" ~count:300
    QCheck.(list (pair (int_range 0 11) (int_range 0 11)))
    (fun pairs ->
      let g, edges = random_graph pairs in
      Deadlock.has_cycle g = model_has_cycle 12 edges)

let prop_deadlock_witness_is_cycle =
  QCheck.Test.make ~name:"find_cycle witness is a real simple cycle" ~count:300
    QCheck.(list (pair (int_range 0 11) (int_range 0 11)))
    (fun pairs ->
      let g, _ = random_graph pairs in
      let es = Deadlock.edges g in
      let has_edge a b = List.mem (a, b) es in
      match Deadlock.find_cycle g with
      | None -> not (Deadlock.has_cycle g)
      | Some [] -> false
      | Some (v0 :: _ as c) ->
        let rec chained = function
          | [ last ] -> has_edge last v0
          | a :: (b :: _ as rest) -> has_edge a b && chained rest
          | [] -> false
        in
        Deadlock.has_cycle g
        && List.length c >= 2
        && chained c
        && List.length (List.sort_uniq compare c) = List.length c)

(* ------------------------------- Models ---------------------------- *)

let test_model_headline_claim () =
  (* Th = 1-hop BDP => worst-case idle fraction exactly 20% at x = 2 *)
  Alcotest.(check (float 1e-9)) "worst x" 2.0 (Model.worst_x ~th_ratio:1.0);
  Alcotest.(check (float 1e-9)) "max 20%" 0.2 (Model.max_ef ~th_ratio:1.0);
  Alcotest.(check (float 1e-3)) "x=1.1 gives ~7.6%" 0.0756 (Model.ef ~x:1.1 ~th_ratio:1.0)

let test_model_monotone_in_th () =
  let prev = ref 1.0 in
  List.iter
    (fun th ->
      let v = Model.max_ef ~th_ratio:th in
      Alcotest.(check bool) "decreasing in Th" true (v < !prev);
      prev := v)
    [ 0.5; 1.0; 2.0; 4.0 ]

let prop_model_worst_x_maximizes =
  QCheck.Test.make ~name:"ef(x) <= ef(worst_x) for all x" ~count:200
    QCheck.(pair (float_range 1.01 10.0) (float_range 0.1 8.0))
    (fun (x, th_ratio) ->
      Model.ef ~x ~th_ratio <= Model.max_ef ~th_ratio +. 1e-9)

let test_model_phases () =
  let p1, p2, p3 = Model.phase_durations ~x:2.0 ~th_ratio:1.0 in
  Alcotest.(check (float 1e-9)) "build-up" 2.0 p1;
  Alcotest.(check (float 1e-9)) "drain" 2.0 p2;
  Alcotest.(check (float 1e-9)) "idle = 1 HRTT" 1.0 p3;
  Alcotest.(check (float 1e-9)) "ef = p3/sum" 0.2 (p3 /. (p1 +. p2 +. p3))

let test_active_flows_theory () =
  Alcotest.(check (float 1e-9)) "mean at 0.9" 9.0 (Active_flows.mean ~rho:0.9);
  Alcotest.(check (float 1e-9)) "pmf 0" 0.1 (Active_flows.pmf ~rho:0.9 0);
  Alcotest.(check (float 1e-6)) "cdf large n -> 1" 1.0 (Active_flows.cdf ~rho:0.5 50);
  check Alcotest.int "quantile 0.99 at rho=.5" 6 (Active_flows.quantile ~rho:0.5 ~p:0.99)

let prop_active_flows_pmf_sums =
  QCheck.Test.make ~name:"geometric pmf sums to ~1" ~count:50
    QCheck.(float_range 0.05 0.95)
    (fun rho ->
      let s = ref 0.0 in
      for n = 0 to 2000 do
        s := !s +. Active_flows.pmf ~rho n
      done;
      Float.abs (!s -. 1.0) < 1e-3)

let suite =
  [
    ("flow table sizing", `Quick, test_flow_table_sizing);
    ("flow table slots", `Quick, test_flow_table_same_slot_same_entry);
    ("flow table occupied", `Quick, test_flow_table_occupied);
    ("flow table egress out of range", `Quick, test_flow_table_egress_out_of_range);
    ("flow table untouched slots read empty", `Quick, test_flow_table_untouched_reads_empty);
    ("flow table reset restores fresh state", `Quick, test_flow_table_reset_restores_fresh);
    ("flow table pages span small egresses", `Quick, test_flow_table_small_egresses);
    ("flow table rebuild keeps resident slots", `Quick, test_flow_table_rebuild_keeps_resident);
    ("pause counter edges", `Quick, test_pause_counter_edges);
    ("pause counter underflow", `Quick, test_pause_counter_underflow);
    ("pause counter bitmap", `Quick, test_pause_counter_bitmap);
    ("dqa prefers empty", `Quick, test_dqa_prefers_empty);
    ("dqa random fallback", `Quick, test_dqa_random_fallback_in_range);
    ("dqa stochastic", `Quick, test_dqa_stochastic_static);
    ("dqa single", `Quick, test_dqa_single);
    ("threshold formula", `Quick, test_threshold_formula);
    ("threshold table", `Quick, test_threshold_table_matches);
    ("dataplane pause/resume cycle", `Quick, test_dataplane_pause_resume_cycle);
    ("dataplane threshold", `Quick, test_dataplane_threshold_tracks_n_active);
    ("dataplane classify separates", `Quick, test_dataplane_classify_separates_flows);
    ("dataplane unsampled assignment sticky", `Quick, test_dataplane_unsampled_assignment_sticky);
    ("deadlock clos acyclic", `Quick, test_deadlock_clos_acyclic);
    ("deadlock synthetic cycle", `Quick, test_deadlock_synthetic_cycle);
    ("deadlock dedup", `Quick, test_deadlock_dedup_edges);
    ("deadlock ring filter", `Quick, test_deadlock_ring_filter);
    ("model headline 20%", `Quick, test_model_headline_claim);
    ("model monotone", `Quick, test_model_monotone_in_th);
    ("model phases", `Quick, test_model_phases);
    ("active flows theory", `Quick, test_active_flows_theory);
    QCheck_alcotest.to_alcotest prop_flow_table_matches_model;
    QCheck_alcotest.to_alcotest prop_flow_table_aliasing;
    QCheck_alcotest.to_alcotest prop_flow_table_egresses_disjoint;
    QCheck_alcotest.to_alcotest prop_pause_counter_invariant;
    QCheck_alcotest.to_alcotest prop_dqa_no_sharing_when_flows_fit;
    QCheck_alcotest.to_alcotest prop_deadlock_random_dag_acyclic;
    QCheck_alcotest.to_alcotest prop_deadlock_matches_model;
    QCheck_alcotest.to_alcotest prop_deadlock_witness_is_cycle;
    QCheck_alcotest.to_alcotest prop_model_worst_x_maximizes;
    QCheck_alcotest.to_alcotest prop_active_flows_pmf_sums;
  ]
