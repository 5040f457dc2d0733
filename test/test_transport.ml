(* Tests for the transport layer: congestion-control state machines, the
   NIC, Homa's receiver scheduler, and host-level behaviour on a tiny
   network. *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Flow = Bfc_net.Flow
module Packet = Bfc_net.Packet
module Topology = Bfc_net.Topology
module Sched = Bfc_switch.Sched
module Dctcp = Bfc_transport.Dctcp
module Dcqcn = Bfc_transport.Dcqcn
module Hpcc = Bfc_transport.Hpcc
module Delay_cc = Bfc_transport.Delay_cc
module Homa = Bfc_transport.Homa
module Nic = Bfc_transport.Nic
module Host = Bfc_transport.Host
module Dist = Bfc_workload.Dist

let check = Alcotest.check

(* ------------------------------- DCTCP ----------------------------- *)

let test_dctcp_starts_at_line_rate () =
  let d = Dctcp.create ~mtu:1000 ~bdp:100_000 ~slow_start:false ~g:0.0625 in
  check Alcotest.int "initial window is one BDP" 100_000 (Dctcp.window d)

let test_dctcp_slow_start () =
  let d = Dctcp.create ~mtu:1000 ~bdp:100_000 ~slow_start:true ~g:0.0625 in
  check Alcotest.int "IW 10" 10_000 (Dctcp.window d);
  (* unmarked acks double the window per RTT (exponential growth) *)
  Dctcp.on_ack d ~acked:10_000 ~marked:false ~snd_una:10_000 ~snd_nxt:20_000;
  check Alcotest.int "grows by acked" 20_000 (Dctcp.window d)

let test_dctcp_additive_increase () =
  let d = Dctcp.create ~mtu:1000 ~bdp:100_000 ~slow_start:false ~g:0.0625 in
  (* one full window of unmarked acks: +1 MTU *)
  Dctcp.on_ack d ~acked:100_000 ~marked:false ~snd_una:100_000 ~snd_nxt:200_000;
  Alcotest.(check bool) "about +1 mtu" true (abs (Dctcp.window d - 101_000) < 10)

let test_dctcp_cuts_on_marks () =
  let d = Dctcp.create ~mtu:1000 ~bdp:100_000 ~slow_start:false ~g:1.0 in
  (* g=1: alpha = marked fraction immediately; all marked -> cut by half *)
  Dctcp.on_ack d ~acked:100_000 ~marked:true ~snd_una:100_000 ~snd_nxt:200_000;
  let w = Dctcp.window d in
  Alcotest.(check bool) (Printf.sprintf "halved (%d)" w) true (w < 60_000 && w > 40_000);
  Alcotest.(check (float 0.01)) "alpha converged to 1" 1.0 (Dctcp.alpha d)

let test_dctcp_timeout () =
  let d = Dctcp.create ~mtu:1000 ~bdp:100_000 ~slow_start:false ~g:0.0625 in
  Dctcp.on_timeout d;
  check Alcotest.int "collapses to 1 mtu" 1000 (Dctcp.window d)

(* ------------------------------- HPCC ------------------------------ *)

let hop ~ts ~tx ~qlen =
  { Packet.h_ts = ts; h_tx_bytes = tx; h_qlen = qlen; h_gbps = 100.0; h_link = 1 }

let test_hpcc_reduces_when_overloaded () =
  let h = Hpcc.create ~eta:0.95 ~bdp:100_000 ~base_rtt:8_000 in
  let w0 = Hpcc.window h in
  (* first ack primes the baseline *)
  Hpcc.on_ack h ~hops:[| hop ~ts:1_000 ~tx:0 ~qlen:200_000 |] ~nhops:1 ~ack_seq:1_000 ~snd_nxt:10_000;
  (* link running at full rate with a huge queue: U >> eta *)
  Hpcc.on_ack h
    ~hops:[| hop ~ts:9_000 ~tx:100_000 ~qlen:200_000 |] ~nhops:1
    ~ack_seq:2_000 ~snd_nxt:20_000;
  Alcotest.(check bool)
    (Printf.sprintf "window cut (%d -> %d)" w0 (Hpcc.window h))
    true
    (Hpcc.window h < w0 / 2);
  Alcotest.(check bool) "u measured > 1" true (Hpcc.last_u h > 1.0)

let test_hpcc_grows_when_idle () =
  let h = Hpcc.create ~eta:0.95 ~bdp:100_000 ~base_rtt:8_000 in
  Hpcc.on_ack h ~hops:[| hop ~ts:1_000 ~tx:0 ~qlen:0 |] ~nhops:1 ~ack_seq:1_000 ~snd_nxt:10_000;
  let w1 = Hpcc.window h in
  (* almost idle link: tiny tx delta, empty queue *)
  Hpcc.on_ack h ~hops:[| hop ~ts:9_000 ~tx:800 ~qlen:0 |] ~nhops:1 ~ack_seq:2_000 ~snd_nxt:20_000;
  Alcotest.(check bool) "window grew additively" true (Hpcc.window h >= w1)

(* ------------------------------- DCQCN ----------------------------- *)

let test_dcqcn_cnp_cuts_rate () =
  let sim = Sim.create () in
  let d = Dcqcn.create sim ~line_gbps:100.0 in
  let r0 = Dcqcn.rate d in
  Alcotest.(check (float 1e-9)) "starts at line rate" 12.5 r0;
  Dcqcn.on_cnp d;
  Alcotest.(check bool) "rate cut" true (Dcqcn.rate d < r0);
  Dcqcn.stop d

let test_dcqcn_recovers () =
  let sim = Sim.create () in
  let d = Dcqcn.create sim ~line_gbps:100.0 in
  Dcqcn.on_cnp d;
  Dcqcn.on_cnp d;
  let cut = Dcqcn.rate d in
  (* run the increase timers for 2 ms of virtual time *)
  ignore (Sim.run sim ~until:(Time.ms 2.0));
  Alcotest.(check bool)
    (Printf.sprintf "recovering (%.2f -> %.2f)" cut (Dcqcn.rate d))
    true
    (Dcqcn.rate d > cut);
  Dcqcn.stop d

let test_dcqcn_alpha_decays () =
  let sim = Sim.create () in
  let d = Dcqcn.create sim ~line_gbps:100.0 in
  Dcqcn.on_cnp d;
  let a0 = Dcqcn.alpha d in
  ignore (Sim.run sim ~until:(Time.ms 1.0));
  Alcotest.(check bool) "alpha decays without CNPs" true (Dcqcn.alpha d < a0);
  Dcqcn.stop d

(* ------------------------------ Delay CC --------------------------- *)

let test_delay_cc () =
  let d = Delay_cc.create ~mtu:1000 ~bdp:100_000 ~base_rtt:8_000 in
  check Alcotest.int "starts at bdp" 100_000 (Delay_cc.window d);
  Delay_cc.on_ack d ~rtt:80_000 (* 10x base: way above the 20us target *);
  Alcotest.(check bool) "shrinks above target" true (Delay_cc.window d < 100_000);
  let w = Delay_cc.window d in
  Delay_cc.on_ack d ~rtt:8_000 (* below target *);
  Alcotest.(check bool) "grows below target" true (Delay_cc.window d > w)

(* ------------------------------- Swift ----------------------------- *)

let test_swift_additive_increase () =
  let sw = Bfc_transport.Swift.create ~mtu:1000 ~bdp:100_000 ~base_rtt:8_000 in
  let w0 = Bfc_transport.Swift.window sw in
  (* below-target RTTs grow the window *)
  for i = 1 to 100 do
    Bfc_transport.Swift.on_ack sw ~rtt:8_000 ~now:(i * 1_000)
  done;
  Alcotest.(check bool) "grew" true (Bfc_transport.Swift.window sw > w0)

let test_swift_decrease_once_per_rtt () =
  let sw = Bfc_transport.Swift.create ~mtu:1000 ~bdp:100_000 ~base_rtt:8_000 in
  (* two above-target samples in the same RTT: only one cut *)
  Bfc_transport.Swift.on_ack sw ~rtt:40_000 ~now:10_000;
  let w1 = Bfc_transport.Swift.window sw in
  Bfc_transport.Swift.on_ack sw ~rtt:40_000 ~now:11_000;
  check Alcotest.int "second sample in same rtt ignored" w1 (Bfc_transport.Swift.window sw);
  Bfc_transport.Swift.on_ack sw ~rtt:40_000 ~now:80_000;
  Alcotest.(check bool) "later cut applies" true (Bfc_transport.Swift.window sw < w1);
  Alcotest.(check bool) "cut happened at all" true (w1 < 100_000)

(* ------------------------------ Timely ----------------------------- *)

let test_timely_low_rtt_increases () =
  let tm = Bfc_transport.Timely.create ~line_gbps:100.0 ~base_rtt:8_000 ~t_low:10_000 ~t_high:16_000 in
  (* force the rate down first so increase is observable *)
  Bfc_transport.Timely.on_ack tm ~rtt:40_000;
  let r1 = Bfc_transport.Timely.rate tm in
  Bfc_transport.Timely.on_ack tm ~rtt:9_000;
  Alcotest.(check bool) "rate rose below t_low" true (Bfc_transport.Timely.rate tm > r1)

let test_timely_high_rtt_decreases () =
  let tm = Bfc_transport.Timely.create ~line_gbps:100.0 ~base_rtt:8_000 ~t_low:10_000 ~t_high:16_000 in
  let r0 = Bfc_transport.Timely.rate tm in
  Bfc_transport.Timely.on_ack tm ~rtt:50_000;
  Alcotest.(check bool) "cut above t_high" true (Bfc_transport.Timely.rate tm < r0)

let test_timely_gradient_region () =
  let tm = Bfc_transport.Timely.create ~line_gbps:100.0 ~base_rtt:8_000 ~t_low:10_000 ~t_high:100_000 in
  (* rising RTTs between t_low and t_high: positive gradient, rate falls *)
  Bfc_transport.Timely.on_ack tm ~rtt:20_000;
  Bfc_transport.Timely.on_ack tm ~rtt:30_000;
  Bfc_transport.Timely.on_ack tm ~rtt:45_000;
  let falling = Bfc_transport.Timely.rate tm in
  Alcotest.(check bool) "positive gradient cuts" true (falling < 12.5)

(* ------------------------------- Homa ------------------------------ *)

let test_homa_params () =
  let p = Homa.params_for ~dist:Dist.google ~total_prios:32 ~rtt_bytes:100_000 in
  Alcotest.(check bool) "unsched prios in range" true
    (p.Homa.unsched_prios >= 1 && p.Homa.unsched_prios < 32);
  check Alcotest.int "overcommit = rest" (32 - p.Homa.unsched_prios) p.Homa.overcommit;
  (* cutoffs ascending *)
  let asc = ref true in
  Array.iteri
    (fun i c -> if i > 0 && c < p.Homa.cutoffs.(i - 1) then asc := false)
    p.Homa.cutoffs;
  Alcotest.(check bool) "cutoffs ascending" true !asc;
  (* smaller sizes get better priority *)
  Alcotest.(check bool) "tiny <= huge prio" true
    (Homa.unsched_prio p ~size:100 <= Homa.unsched_prio p ~size:3_000_000)

let test_homa_receiver_grants_srpt () =
  let p = Homa.params_for ~dist:Dist.google ~total_prios:8 ~rtt_bytes:10_000 in
  let r = Homa.Receiver.create p in
  let big = Flow.make ~id:1 ~src:0 ~dst:9 ~size:1_000_000 ~arrival:0 () in
  let small = Flow.make ~id:2 ~src:1 ~dst:9 ~size:50_000 ~arrival:0 () in
  ignore (Homa.Receiver.on_data r ~flow:big ~covered:10_000);
  let grants = Homa.Receiver.on_data r ~flow:small ~covered:10_000 in
  (* the small message must be granted, and at a better (lower) priority
     than the big one if both are granted *)
  let find f = List.find_opt (fun g -> g.Homa.g_flow == f) grants in
  (match find small with
  | Some g ->
    Alcotest.(check bool) "grant beyond covered" true (g.Homa.g_offset > 10_000);
    (match find big with
    | Some gb -> Alcotest.(check bool) "srpt priority order" true (g.Homa.g_prio <= gb.Homa.g_prio)
    | None -> ())
  | None -> Alcotest.fail "small message not granted");
  check Alcotest.int "two active messages" 2 (Homa.Receiver.active r)

let test_homa_receiver_completion_removes () =
  let p = Homa.params_for ~dist:Dist.google ~total_prios:8 ~rtt_bytes:10_000 in
  let r = Homa.Receiver.create p in
  let f = Flow.make ~id:3 ~src:0 ~dst:9 ~size:5_000 ~arrival:0 () in
  ignore (Homa.Receiver.on_data r ~flow:f ~covered:5_000);
  check Alcotest.int "completed message dropped" 0 (Homa.Receiver.active r)

let test_homa_overcommit_limit () =
  let p = Homa.params_for ~dist:Dist.google ~total_prios:4 ~rtt_bytes:10_000 in
  let r = Homa.Receiver.create p in
  (* create more messages than the overcommit level; the grant list per
     round never exceeds overcommit *)
  for i = 0 to 9 do
    let f = Flow.make ~id:(100 + i) ~src:i ~dst:9 ~size:500_000 ~arrival:0 () in
    let grants = Homa.Receiver.on_data r ~flow:f ~covered:1_000 in
    Alcotest.(check bool) "bounded grants" true (List.length grants <= p.Homa.overcommit)
  done

(* -------------------------------- NIC ------------------------------ *)

let mk_nic ?(policy = Sched.Drr) ?(respect_pause = true) () =
  let sim = Sim.create () in
  let b = Topology.Builder.create sim in
  let h = Topology.Builder.add_host b ~name:"h" in
  let z = Topology.Builder.add_host b ~name:"z" in
  Topology.Builder.link b h z ~gbps:100.0 ~prop:(Time.us 1.0);
  let t = Topology.Builder.finish b in
  let received = ref [] in
  (Topology.node t z).Bfc_net.Node.handler <- (fun ~in_port:_ pkt -> received := pkt :: !received);
  (Topology.node t h).Bfc_net.Node.handler <- (fun ~in_port:_ _ -> ());
  let nic =
    Nic.create ~sim ~node:h ~port:(Topology.ports t h).(0) ~n_queues:8 ~policy ~respect_pause ()
  in
  (sim, nic, received)

let data_pkt ?(payload = 1000) flow_id =
  let f = Flow.make ~id:flow_id ~src:0 ~dst:1 ~size:100_000 ~arrival:0 () in
  Packet.data ~flow:f ~seq:0 ~payload ()

let test_nic_transmits () =
  let sim, nic, received = mk_nic () in
  let q = Nic.alloc_queue nic in
  Nic.submit nic ~queue:q (data_pkt 1);
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "delivered" 1 (List.length !received);
  check Alcotest.int "stamps upstream_q" q (Packet.upstream_q (List.hd !received))

let test_nic_alloc_distinct () =
  let _, nic, _ = mk_nic () in
  let a = Nic.alloc_queue nic in
  let b = Nic.alloc_queue nic in
  Alcotest.(check bool) "distinct data queues" true (a <> b && a >= 1 && b >= 1);
  Nic.release_queue nic a;
  let c = Nic.alloc_queue nic in
  Alcotest.(check bool) "freed queue reusable eventually" true (c >= 1)

let test_nic_pause_holds_queue () =
  let sim, nic, received = mk_nic () in
  let q = Nic.alloc_queue nic in
  (* pause queue q via a Pause ctrl packet *)
  let pause = Packet.make Packet.Pause ~dst:(-1) ~size:64 () in
  Packet.set_ctrl_a pause q;
  Nic.on_ctrl nic pause;
  Nic.submit nic ~queue:q (data_pkt 1);
  ignore (Sim.run sim ~until:(Time.us 100.0));
  check Alcotest.int "held" 0 (List.length !received);
  Alcotest.(check bool) "queue marked paused" true (Nic.queue_paused nic ~queue:q);
  let resume = Packet.make Packet.Resume ~dst:(-1) ~size:64 () in
  Packet.set_ctrl_a resume q;
  Nic.on_ctrl nic resume;
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "released" 1 (List.length !received)

let test_nic_ignores_pause_when_configured () =
  let sim, nic, received = mk_nic ~respect_pause:false () in
  let q = Nic.alloc_queue nic in
  let pause = Packet.make Packet.Pause ~dst:(-1) ~size:64 () in
  Packet.set_ctrl_a pause q;
  Nic.on_ctrl nic pause;
  Nic.submit nic ~queue:q (data_pkt 1);
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "BFC-NIC variant ships anyway" 1 (List.length !received)

let test_nic_pfc_pauses_everything () =
  let sim, nic, received = mk_nic () in
  let q = Nic.alloc_queue nic in
  let pfc = Packet.make Packet.Pfc ~dst:(-1) ~size:64 () in
  Packet.set_ctrl_b pfc 1;
  Nic.on_ctrl nic pfc;
  Nic.submit nic ~queue:q (data_pkt 1);
  Nic.submit_ctrl nic (Packet.make Packet.Ack ~dst:1 ~size:64 ());
  ignore (Sim.run sim ~until:(Time.us 100.0));
  check Alcotest.int "everything held" 0 (List.length !received);
  let resume = Packet.make Packet.Pfc ~dst:(-1) ~size:64 () in
  Packet.set_ctrl_b resume 0;
  Nic.on_ctrl nic resume;
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "both flushed" 2 (List.length !received)

let test_nic_ctrl_queue_priority_under_strict () =
  let sim, nic, received = mk_nic ~policy:Sched.Prio_strict () in
  (* stuff a data packet then an ack; under strict priority queue 0 (ctrl)
     wins whenever both are waiting *)
  Nic.submit nic ~queue:5 (data_pkt 1);
  Nic.submit nic ~queue:5 (data_pkt 2);
  Nic.submit_ctrl nic (Packet.make Packet.Ack ~dst:1 ~size:64 ());
  ignore (Sim.run_until_idle sim);
  match List.rev !received with
  | [ first; second; third ] ->
    Alcotest.(check bool) "data was serializing first" true (Packet.kind first = Packet.Data);
    Alcotest.(check bool) "ack preempts second slot" true (Packet.kind second = Packet.Ack);
    Alcotest.(check bool) "then data" true (Packet.kind third = Packet.Data)
  | _ -> Alcotest.fail "expected 3 deliveries"

(* --------------------------- Host end-to-end ----------------------- *)

(* Two hosts connected through one BFC switch: a flow must complete and
   the receiver must have sent acks. *)
let test_host_flow_completes () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let t = st.Topology.s in
  let cfg = { Bfc_switch.Switch.default_config with Bfc_switch.Switch.queues_per_port = 8 } in
  let route sw ~in_port:_ pkt =
    (Topology.candidates t ~node:(Bfc_switch.Switch.node_id sw) ~dst:(Packet.dst pkt)).(0)
  in
  let sw =
    Bfc_switch.Switch.create ~sim
      ~node:(Topology.node t st.Topology.st_switch)
      ~ports:(Topology.ports t st.Topology.st_switch)
      ~config:cfg ~route ()
  in
  ignore
    (Bfc_core.Dataplane.attach sw
       { Bfc_core.Dataplane.default_config with Bfc_core.Dataplane.max_upstream_q = 16 });
  let hostcfg = { Host.default_config with Host.nic_queues = 8; bdp = 25_000 } in
  let mk i = Host.create ~sim ~node:(Topology.node t i) ~port:(Topology.ports t i).(0) ~config:hostcfg () in
  let h0 = mk st.Topology.st_senders.(0) in
  let _h1 = mk st.Topology.st_senders.(1) in
  let hr = mk st.Topology.st_receiver in
  let completed = ref None in
  Host.add_on_complete hr (fun f -> completed := Some f.Flow.id);
  let f =
    Flow.make ~id:500 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size:50_000
      ~arrival:0 ()
  in
  Host.start_flow h0 f;
  ignore (Sim.run sim ~until:(Time.ms 5.0));
  check Alcotest.(option int) "completed at receiver" (Some 500) !completed;
  check Alcotest.int "all bytes delivered in order" 50_000 f.Flow.delivered;
  Alcotest.(check bool) "fct recorded" true (Flow.fct f > 0);
  check Alcotest.int "sender accounted payload" 50_000 (Host.bytes_sent h0)

(* -------------------------- flow-state slots ----------------------- *)

(* Two hosts on one direct link. The sender is created first, so its
   index in the sim's host registry (the [a0] of its timers) is 0. *)
let mk_pair () =
  let sim = Sim.create () in
  let b = Topology.Builder.create sim in
  let s = Topology.Builder.add_host b ~name:"s" in
  let r = Topology.Builder.add_host b ~name:"r" in
  Topology.Builder.link b s r ~gbps:100.0 ~prop:(Time.us 1.0);
  let t = Topology.Builder.finish b in
  let mk i =
    Host.create ~sim ~node:(Topology.node t i) ~port:(Topology.ports t i).(0)
      ~config:Host.default_config ()
  in
  let hs = mk s in
  (sim, t, s, r, hs, mk r)

(* Every flow timer kind, on both hosts, for flow word [w]. *)
let post_timers sim w =
  for host = 0 to 1 do
    for kind = 0 to 3 do
      Sim.post sim (Sim.now sim) ~cls:Sim.cls_flow_timeout ~a0:((host lsl 2) lor kind) ~a1:w
    done
  done

(* Two single-MTU stream flows: the second takes the first one's slot in
   the flow table, and with it the first one's reclaimed sender and
   receiver records. Late packets of every kind, every flow timer kind
   and a drop notice for the reclaimed flow arrive as the second starts;
   none may reach its records. *)
let test_host_slot_reuse () =
  let sim, t, s, r, hs, hr = mk_pair () in
  let flows = Bfc_net.Port.flows sim and pool = Bfc_net.Port.pool sim in
  let fresh id = Flow.Table.fresh flows ~id ~src:s ~dst:r ~size:1000 ~arrival:(Sim.now sim) in
  let a = fresh 1 in
  Host.start_flow hs a;
  let wa = Packet.ref_of a in
  let late kind =
    let dst = match kind with Packet.Data | Packet.Credit_req -> r | _ -> s in
    if kind = Packet.Data then
      Packet.Pool.data pool ~flow:wa ~dst ~prio:0 ~seq:0 ~payload:1000 ~extra_header:0
    else Packet.Pool.acquire pool kind ~flow:wa ~dst ~size:Packet.ack_bytes ~seq:0
  in
  let kinds =
    [ Packet.Data; Packet.Ack; Packet.Nack; Packet.Grant; Packet.Credit; Packet.Credit_req; Packet.Cnp ]
  in
  let pkts = List.map late kinds in
  ignore (Sim.run sim ~until:(Time.us 50.0));
  Alcotest.(check bool) "first flow complete" true (Flow.complete a);
  let fct_a = Flow.fct a in
  Host.reclaim_after hs ~flow:a ~delay:(Time.us 10.0);
  ignore (Sim.run sim ~until:(Time.us 70.0));
  let b = fresh 2 in
  Alcotest.(check bool) "the next flow takes the slot" true (b.Flow.slot = Packet.ref_slot wa);
  Host.start_flow hs b;
  List.iter
    (fun pkt -> (Topology.node t (Packet.dst pkt)).Bfc_net.Node.handler ~in_port:0 pkt)
    pkts;
  post_timers sim wa;
  Host.on_drop_notice hs ~flow:wa ~seq:0 ~len:1000;
  ignore (Sim.run sim ~until:(Time.us 150.0));
  Alcotest.(check bool) "second flow complete" true (Flow.complete b);
  check Alcotest.int "same fct as the first" fct_a (Flow.fct b);
  check Alcotest.int "no retransmission" 0 (Host.bytes_retransmitted hs);
  check Alcotest.int "one MTU per flow" 2000 (Host.bytes_sent hs);
  check Alcotest.int "every late packet is stale" (List.length kinds)
    (Host.stale_packets hs + Host.stale_packets hr);
  check Alcotest.(pair int int) "one record per end, reused" (1, 1) (Host.flow_records hs)

(* A caller's flow keeps its slot for the run, so its late packets pass
   [receive]'s stale check even after its reclaim and reach the handlers
   (a streaming run with caller-owned flows, such as [bfc_sim sweep
   --streaming], reclaims them). The reclaim unbound both records, so the
   sender finds nothing for the late ACK, NACK, grant, credit and CNP, and
   the timers and the drop notice find nothing either: nothing is resent.
   The late Data packet binds the receiver afresh, which takes it as the
   flow's only packet and completes the flow a second time. This pins the
   reclaim's unbinding: a receiver left bound would absorb the packet as
   a duplicate and complete nothing. *)
let test_host_reclaimed_caller_flow () =
  let sim, t, s, r, hs, hr = mk_pair () in
  let pool = Bfc_net.Port.pool sim in
  let a = Flow.make ~id:1 ~src:s ~dst:r ~size:1000 ~arrival:0 () in
  let completions = ref 0 in
  Host.add_on_complete hr (fun _ -> incr completions);
  Host.start_flow hs a;
  let wa = Packet.ref_of a in
  ignore (Sim.run sim ~until:(Time.us 50.0));
  Alcotest.(check bool) "flow complete" true (Flow.complete a);
  let finish = a.Flow.finish in
  Host.reclaim_after hs ~flow:a ~delay:(Time.us 10.0);
  ignore (Sim.run sim ~until:(Time.us 70.0));
  let late kind =
    let dst = match kind with Packet.Data | Packet.Credit_req -> r | _ -> s in
    if kind = Packet.Data then
      Packet.Pool.data pool ~flow:wa ~dst ~prio:0 ~seq:0 ~payload:1000 ~extra_header:0
    else Packet.Pool.acquire pool kind ~flow:wa ~dst ~size:Packet.ack_bytes ~seq:0
  in
  List.iter
    (fun kind ->
      let pkt = late kind in
      (Topology.node t (Packet.dst pkt)).Bfc_net.Node.handler ~in_port:0 pkt)
    [ Packet.Data; Packet.Ack; Packet.Nack; Packet.Grant; Packet.Credit; Packet.Credit_req; Packet.Cnp ];
  post_timers sim wa;
  Host.on_drop_notice hs ~flow:wa ~seq:0 ~len:1000;
  ignore (Sim.run sim ~until:(Time.us 150.0));
  check Alcotest.int "a second completion" 2 !completions;
  check Alcotest.int "finish unchanged" finish a.Flow.finish;
  check Alcotest.int "delivered unchanged" 1000 a.Flow.delivered;
  check Alcotest.int "nothing resent" 1000 (Host.bytes_sent hs);
  check Alcotest.int "no retransmission" 0 (Host.bytes_retransmitted hs);
  check Alcotest.int "no packet is stale" 0 (Host.stale_packets hs + Host.stale_packets hr);
  check Alcotest.(pair int int) "one record per end, rebound" (1, 1) (Host.flow_records hs)

(* A stream's flow records are the flow table's own, and one goes to a
   later flow once its flow is reclaimed. A data packet and an ACK kept
   past their flow's reclaim and past its slot's reuse name a slot that
   holds another flow now: each host counts its packet as stale, and the
   new flow's sender and receiver never see them. *)
let test_stale_packet_counted () =
  let sim, t, s, r, hs, hr = mk_pair () in
  let flows = Bfc_net.Port.flows sim and pool = Bfc_net.Port.pool sim in
  let fresh id = Flow.Table.fresh flows ~id ~src:s ~dst:r ~size:1000 ~arrival:(Sim.now sim) in
  let a = fresh 1 in
  Host.start_flow hs a;
  let keep kind ~dst ~seq =
    Packet.Pool.acquire pool kind ~flow:(Packet.ref_of a) ~dst ~size:Packet.ack_bytes ~seq
  in
  let data =
    Packet.Pool.data pool ~flow:(Packet.ref_of a) ~dst:r ~prio:0 ~seq:0 ~payload:1000
      ~extra_header:0
  in
  let ack = keep Packet.Ack ~dst:s ~seq:1000 in
  ignore (Sim.run sim ~until:(Time.us 50.0));
  Alcotest.(check bool) "first flow complete" true (Flow.complete a);
  let fct_a = Flow.fct a in
  Host.reclaim_after hs ~flow:a ~delay:(Time.us 10.0);
  ignore (Sim.run sim ~until:(Time.us 70.0));
  check Alcotest.int "its record is back in the table" 0 (Flow.Table.live flows);
  let b = fresh 2 in
  Alcotest.(check bool) "the next flow reuses the record" true (a == b);
  Host.start_flow hs b;
  (Topology.node t r).Bfc_net.Node.handler ~in_port:0 data;
  (Topology.node t s).Bfc_net.Node.handler ~in_port:0 ack;
  check Alcotest.int "the receiver counts the stale data packet" 1 (Host.stale_packets hr);
  check Alcotest.int "the sender counts the stale ACK" 1 (Host.stale_packets hs);
  check Alcotest.int "nothing delivered to the new flow" 0 b.Flow.delivered;
  Alcotest.(check bool) "and it is not complete" false (Flow.complete b);
  ignore (Sim.run sim ~until:(Time.us 150.0));
  Alcotest.(check bool) "second flow complete" true (Flow.complete b);
  check Alcotest.int "same fct as the first" fct_a (Flow.fct b);
  check Alcotest.int "no retransmission" 0 (Host.bytes_retransmitted hs);
  check Alcotest.int "one MTU per flow" 2000 (Host.bytes_sent hs);
  check Alcotest.int "no other stale packet" 2 (Host.stale_packets hs + Host.stale_packets hr)

(* A sender reclaimed before it finished is still on its NIC queue's
   owner list, so its record must not go to its slot's next flow: it keeps
   sending, and the next flow gets a fresh record. Its ACK-less timers
   and its data, which the receiver counts as stale, miss the next flow's
   records. The receiver's incomplete record is detached too. *)
let test_host_unfinished_tx_not_reused () =
  let sim, _, s, r, hs, hr = mk_pair () in
  let flows = Bfc_net.Port.flows sim in
  let fresh id ~size = Flow.Table.fresh flows ~id ~src:s ~dst:r ~size ~arrival:(Sim.now sim) in
  let c = fresh 1 ~size:1_000_000 in
  Host.start_flow hs c;
  let wc = Packet.ref_of c in
  ignore (Sim.run sim ~until:(Time.us 5.0));
  Host.reclaim_after hs ~flow:c ~delay:0;
  ignore (Sim.run sim ~until:(Sim.now sim + 1));
  let d = fresh 2 ~size:1000 in
  Alcotest.(check bool) "the next flow takes the slot" true (d.Flow.slot = Packet.ref_slot wc);
  Host.start_flow hs d;
  post_timers sim wc;
  ignore (Sim.run sim ~until:(Time.ms 2.0));
  check Alcotest.(pair int int) "fresh records for the next flow" (2, 2) (Host.flow_records hs);
  Alcotest.(check bool) "next flow complete" true (Flow.complete d);
  check Alcotest.int "the reclaimed sender sent every byte once" 1_001_000 (Host.bytes_sent hs);
  check Alcotest.int "no retransmission" 0 (Host.bytes_retransmitted hs);
  Alcotest.(check bool) "its data reached no record" true (Host.stale_packets hr > 0)

(* The NIC and switch watchdog events pack a queue (and an egress) into
   12 bits, so larger devices are refused. *)
let test_watchdog_packing_bounds () =
  let sim = Sim.create () in
  let b = Topology.Builder.create sim in
  let h = Topology.Builder.add_host b ~name:"h" in
  let sw = Topology.Builder.add_switch b ~name:"sw" in
  Topology.Builder.link b h sw ~gbps:100.0 ~prop:(Time.us 1.0);
  let t = Topology.Builder.finish b in
  let refused what f =
    Alcotest.(check bool) what true (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  refused "nic with 4096 queues" (fun () ->
      Nic.create ~sim ~node:h ~port:(Topology.ports t h).(0) ~n_queues:4096 ~policy:Sched.Drr
        ~respect_pause:true ());
  let switch ports queues_per_port =
    Bfc_switch.Switch.create ~sim ~node:(Topology.node t sw) ~ports
      ~config:{ Bfc_switch.Switch.default_config with queues_per_port }
      ~route:(fun _ ~in_port:_ _ -> 0)
      ()
  in
  let ports = Topology.ports t sw in
  refused "switch with 4097 ports" (fun () -> switch (Array.make 4097 ports.(0)) 1);
  refused "switch with 4096 queues per port" (fun () -> switch ports 4096)

let suite =
  [
    ("dctcp line-rate start", `Quick, test_dctcp_starts_at_line_rate);
    ("dctcp slow start", `Quick, test_dctcp_slow_start);
    ("dctcp additive increase", `Quick, test_dctcp_additive_increase);
    ("dctcp cuts on marks", `Quick, test_dctcp_cuts_on_marks);
    ("dctcp timeout", `Quick, test_dctcp_timeout);
    ("hpcc reduces when overloaded", `Quick, test_hpcc_reduces_when_overloaded);
    ("hpcc grows when idle", `Quick, test_hpcc_grows_when_idle);
    ("dcqcn cnp cuts", `Quick, test_dcqcn_cnp_cuts_rate);
    ("dcqcn recovers", `Quick, test_dcqcn_recovers);
    ("dcqcn alpha decays", `Quick, test_dcqcn_alpha_decays);
    ("delay cc", `Quick, test_delay_cc);
    ("swift additive increase", `Quick, test_swift_additive_increase);
    ("swift once-per-rtt cut", `Quick, test_swift_decrease_once_per_rtt);
    ("timely low rtt", `Quick, test_timely_low_rtt_increases);
    ("timely high rtt", `Quick, test_timely_high_rtt_decreases);
    ("timely gradient", `Quick, test_timely_gradient_region);
    ("homa params", `Quick, test_homa_params);
    ("homa receiver srpt", `Quick, test_homa_receiver_grants_srpt);
    ("homa completion", `Quick, test_homa_receiver_completion_removes);
    ("homa overcommit", `Quick, test_homa_overcommit_limit);
    ("nic transmits", `Quick, test_nic_transmits);
    ("nic alloc distinct", `Quick, test_nic_alloc_distinct);
    ("nic pause holds", `Quick, test_nic_pause_holds_queue);
    ("nic BFC-NIC variant", `Quick, test_nic_ignores_pause_when_configured);
    ("nic pfc", `Quick, test_nic_pfc_pauses_everything);
    ("nic strict ctrl priority", `Quick, test_nic_ctrl_queue_priority_under_strict);
    ("host flow completes", `Quick, test_host_flow_completes);
    ("host flow slots reused after reclaim", `Quick, test_host_slot_reuse);
    ("host unfinished sender not reused", `Quick, test_host_unfinished_tx_not_reused);
    ("host reclaimed caller flow reaches the handlers", `Quick, test_host_reclaimed_caller_flow);
    ("stale packet is counted", `Quick, test_stale_packet_counted);
    ("nic and switch watchdog packing bounds", `Quick, test_watchdog_packing_bounds);
  ]
