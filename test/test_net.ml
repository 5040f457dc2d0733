(* Tests for the network substrate: flows, packets, topology, routing. *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Flow = Bfc_net.Flow
module Packet = Bfc_net.Packet
module Node = Bfc_net.Node
module Port = Bfc_net.Port
module Topology = Bfc_net.Topology

let check = Alcotest.check

(* ------------------------------- Flow ------------------------------ *)

let test_flow_lifecycle () =
  let f = Flow.make ~id:1 ~src:0 ~dst:1 ~size:1000 ~arrival:50 () in
  Alcotest.(check bool) "not complete" false (Flow.complete f);
  f.Flow.finish <- 150;
  Alcotest.(check bool) "complete" true (Flow.complete f);
  check Alcotest.int "fct" 100 (Flow.fct f)

let test_flow_invalid_size () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Flow.make ~id:1 ~src:0 ~dst:1 ~size:0 ~arrival:0 ());
       false
     with Invalid_argument _ -> true)

let test_flow_hash_spread () =
  (* distinct ids should rarely collide in 30-bit space *)
  let seen = Hashtbl.create 64 in
  let collisions = ref 0 in
  for id = 0 to 9_999 do
    let f = Flow.make ~id ~src:0 ~dst:1 ~size:1 ~arrival:0 () in
    let h = Flow.hash f.Flow.id in
    if Hashtbl.mem seen h then incr collisions else Hashtbl.add seen h ()
  done;
  Alcotest.(check bool) "few collisions" true (!collisions < 3)

(* ------------------------------ Packet ----------------------------- *)

let test_packet_data () =
  let f = Flow.make ~id:9 ~src:3 ~dst:7 ~size:5000 ~arrival:0 ~prio_class:2 () in
  let p = Packet.data ~flow:f ~seq:1000 ~payload:1000 () in
  check Alcotest.int "wire size" (1000 + Packet.header_bytes) (Packet.size p);
  check Alcotest.int "dst" 7 (Packet.dst p);
  check Alcotest.int "prio from class" 2 (Packet.prio p);
  check Alcotest.int "flow id" 9 (Packet.fid p)

(* A packet has no index until a table sees it; one table gives two
   packets two indices, and a packet keeps its index. *)
let test_packet_indices () =
  let f = Flow.make ~id:1 ~src:0 ~dst:1 ~size:10 ~arrival:0 () in
  let a = Packet.data ~flow:f ~seq:0 ~payload:10 () in
  let b = Packet.data ~flow:f ~seq:0 ~payload:10 () in
  check Alcotest.int "unindexed" (-1) (Packet.idx a);
  let pool = Packet.Pool.create () in
  let ia = Packet.Pool.index pool a and ib = Packet.Pool.index pool b in
  Alcotest.(check bool) "indices differ" true (ia <> ib);
  check Alcotest.int "index kept" ia (Packet.Pool.index pool a);
  check Alcotest.int "idx reads it" ib (Packet.idx b)

let test_packet_control_kinds () =
  let p = Packet.make Packet.Pause ~dst:1 ~size:64 () in
  check Alcotest.int "no flow" (-1) (Packet.fid p)

(* ----------------------------- Topology ---------------------------- *)

let mk_clos () =
  let sim = Sim.create () in
  (sim, Topology.clos sim ~spines:2 ~tors:3 ~hosts_per_tor:4 ~gbps:100.0 ~prop:(Time.us 1.0))

let test_clos_shape () =
  let _, cl = mk_clos () in
  let t = cl.Topology.t in
  check Alcotest.int "hosts" 12 (Array.length (Topology.hosts t));
  check Alcotest.int "tor ports" 6 (Array.length (Topology.ports t cl.Topology.tors.(0)));
  check Alcotest.int "spine ports" 3 (Array.length (Topology.ports t cl.Topology.spines.(0)));
  check Alcotest.int "host ports" 1 (Array.length (Topology.ports t cl.Topology.cl_hosts.(0)))

let test_clos_routing_candidates () =
  let _, cl = mk_clos () in
  let t = cl.Topology.t in
  let h0 = cl.Topology.cl_hosts.(0) and h_far = cl.Topology.cl_hosts.(11) in
  let h_near = cl.Topology.cl_hosts.(1) in
  let tor0 = cl.Topology.tors.(0) in
  (* same-rack destination: one down port, no ECMP *)
  check Alcotest.int "intra-rack single path" 1
    (Array.length (Topology.candidates t ~node:tor0 ~dst:h_near));
  (* cross-rack: ECMP across both spines *)
  check Alcotest.int "cross-rack ecmp width" 2
    (Array.length (Topology.candidates t ~node:tor0 ~dst:h_far));
  (* host has exactly one way out *)
  check Alcotest.int "host uplink" 1 (Array.length (Topology.candidates t ~node:h0 ~dst:h_far))

let test_path_walks_to_destination () =
  let _, cl = mk_clos () in
  let t = cl.Topology.t in
  let src = cl.Topology.cl_hosts.(0) and dst = cl.Topology.cl_hosts.(11) in
  let path = Topology.path t ~src ~dst in
  check Alcotest.int "4 hops across the fabric" 4 (List.length path);
  let last = List.nth path 3 in
  check Alcotest.int "lands at dst" dst (Port.peer last).Node.id

let test_ecmp_consistent () =
  let _, cl = mk_clos () in
  let t = cl.Topology.t in
  let f = Flow.make ~id:77 ~src:cl.Topology.cl_hosts.(0) ~dst:cl.Topology.cl_hosts.(11) ~size:1 ~arrival:0 () in
  let tor = cl.Topology.tors.(0) in
  let a = Topology.ecmp_port t ~node:tor ~fid:f.Flow.id ~dst:f.Flow.dst in
  let b = Topology.ecmp_port t ~node:tor ~fid:f.Flow.id ~dst:f.Flow.dst in
  check Alcotest.int "same flow same port" a b

let test_ecmp_spreads () =
  let _, cl = mk_clos () in
  let t = cl.Topology.t in
  let tor = cl.Topology.tors.(0) in
  let dst = cl.Topology.cl_hosts.(11) in
  let counts = Hashtbl.create 4 in
  for id = 0 to 199 do
    let f = Flow.make ~id ~src:cl.Topology.cl_hosts.(0) ~dst ~size:1 ~arrival:0 () in
    let p = Topology.ecmp_port t ~node:tor ~fid:f.Flow.id ~dst in
    Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
  done;
  check Alcotest.int "uses both spines" 2 (Hashtbl.length counts)

let test_ideal_fct_single_packet () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let t = st.Topology.s in
  let src = st.Topology.st_senders.(0) and dst = st.Topology.st_receiver in
  (* 1000B flow: wire = 1048B; two hops at 100G: 2 x ser(1048B=83.84->84ns)
     + 2 x 1000ns prop *)
  let fct = Topology.ideal_fct t ~src ~dst ~size:1000 ~mtu:1000 () in
  check Alcotest.int "two-hop single-packet fct" (2 * (84 + 1000)) fct

let test_ideal_fct_monotone_in_size () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let t = st.Topology.s in
  let src = st.Topology.st_senders.(0) and dst = st.Topology.st_receiver in
  let f s = Topology.ideal_fct t ~src ~dst ~size:s ~mtu:1000 () in
  Alcotest.(check bool) "monotone" true (f 1000 < f 10_000 && f 10_000 < f 100_000)

let test_base_rtt () =
  let _, cl = mk_clos () in
  let t = cl.Topology.t in
  let rtt =
    Topology.base_rtt t ~src:cl.Topology.cl_hosts.(0) ~dst:cl.Topology.cl_hosts.(11)
  in
  (* 8 one-way hops of 1us plus serialization of tiny headers: ~8us *)
  Alcotest.(check bool)
    (Printf.sprintf "rtt ~8us (got %dns)" rtt)
    true
    (rtt > 8_000 && rtt < 8_500)

let test_dumbbell_bottleneck () =
  let sim = Sim.create () in
  let db = Topology.dumbbell sim ~senders:3 ~gbps:40.0 ~prop:(Time.us 2.0) in
  (* sender -> left switch -> right switch -> receiver *)
  match Topology.path db.Topology.d ~src:db.Topology.senders.(0) ~dst:db.Topology.receiver with
  | [ _; bottleneck; last ] ->
    check Alcotest.bool "bottleneck joins the two switches" true
      ((Port.peer bottleneck).Node.kind = Node.Switch && (Port.peer last).Node.kind = Node.Host);
    check (Alcotest.float 0.01) "bottleneck speed" 40.0 (Port.gbps bottleneck)
  | path -> Alcotest.failf "expected 3 hops, got %d" (List.length path)

let test_testbed_shape () =
  let sim = Sim.create () in
  let tb = Topology.testbed sim ~g1:2 ~g2:3 ~g3:4 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let t = tb.Topology.tb in
  check Alcotest.int "hosts" (2 + 3 + 4 + 2) (Array.length (Topology.hosts t));
  (* group 1 routes to recv1 via sw1 then sw2 *)
  let path = Topology.path t ~src:tb.Topology.group1.(0) ~dst:tb.Topology.recv1 in
  check Alcotest.int "3 hops" 3 (List.length path)

let test_cross_dc_shape () =
  let sim = Sim.create () in
  let x =
    Topology.cross_dc sim ~spines:2 ~tors:2 ~hosts_per_tor:2 ~gbps:100.0 ~prop:(Time.us 1.0)
      ~wan_gbps:200.0 ~wan_prop:(Time.us 200.0)
  in
  let h1 = x.Topology.dc1.Topology.xc_hosts.(0) in
  let h2 = x.Topology.dc2.Topology.xc_hosts.(0) in
  let rtt = Topology.base_rtt x.Topology.x ~src:h1 ~dst:h2 in
  Alcotest.(check bool) "cross-dc rtt dominated by WAN (>400us)" true (rtt > 400_000);
  let p = Topology.port_by_gid x.Topology.x x.Topology.interconnect_gid in
  Alcotest.(check (float 0.01)) "wan speed" 200.0 (Port.gbps p)

let test_port_transmission () =
  let sim = Sim.create () in
  let b = Topology.Builder.create sim in
  let a = Topology.Builder.add_host b ~name:"a" in
  let z = Topology.Builder.add_host b ~name:"z" in
  Topology.Builder.link b a z ~gbps:100.0 ~prop:(Time.us 1.0);
  let t = Topology.Builder.finish b in
  let got = ref None in
  (Topology.node t z).Node.handler <- (fun ~in_port:_ pkt -> got := Some (Packet.idx pkt));
  let f = Flow.make ~id:1 ~src:a ~dst:z ~size:1000 ~arrival:0 () in
  let pkt = Packet.data ~flow:f ~seq:0 ~payload:1000 () in
  let port = (Topology.ports t a).(0) in
  Port.send port pkt;
  Alcotest.(check bool) "busy during ser" true (Port.busy port);
  ignore (Sim.run sim ~until:(Time.us 0.5));
  Alcotest.(check bool) "not yet delivered (prop)" true (!got = None);
  ignore (Sim.run sim ~until:(Time.us 2.0));
  Alcotest.(check bool) "sent packets are indexed" true (Packet.idx pkt >= 0);
  check Alcotest.(option int) "delivered" (Some (Packet.idx pkt)) !got;
  Alcotest.(check bool) "idle after ser" false (Port.busy port);
  check Alcotest.int "tx bytes counted" (Packet.size pkt) (Port.tx_bytes port)

let test_port_ctrl_bypass () =
  let sim = Sim.create () in
  let b = Topology.Builder.create sim in
  let a = Topology.Builder.add_host b ~name:"a" in
  let z = Topology.Builder.add_host b ~name:"z" in
  Topology.Builder.link b a z ~gbps:100.0 ~prop:(Time.us 1.0);
  let t = Topology.Builder.finish b in
  let at = ref (-1) in
  (Topology.node t z).Node.handler <- (fun ~in_port:_ _ -> at := Sim.now sim);
  let pkt = Packet.make Packet.Pause ~dst:z ~size:64 () in
  Port.send_ctrl (Topology.ports t a).(0) pkt;
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "ctrl arrives after exactly prop" (Time.us 1.0) !at

(* A link into a node nobody attached a device to is a wiring bug: the
   delivery raises a structured error naming the node. *)
let test_node_unattached () =
  let sim = Sim.create () in
  let b = Topology.Builder.create sim in
  let a = Topology.Builder.add_host b ~name:"a" in
  let z = Topology.Builder.add_host b ~name:"z" in
  Topology.Builder.link b a z ~gbps:100.0 ~prop:(Time.us 1.0);
  let t = Topology.Builder.finish b in
  Port.send_ctrl (Topology.ports t a).(0) (Packet.make Packet.Pause ~dst:z ~size:64 ());
  Alcotest.check_raises "names the node" (Node.Unattached { node = "z" }) (fun () ->
      ignore (Sim.run_until_idle sim))

(* Data and control deliveries on one port interleave in time; each
   delivery event names its packet by table index, so every arrival must
   hand over exactly the packet its send posted, at its own time. *)
let test_port_interleaved_deliveries () =
  let sim = Sim.create () in
  let b = Topology.Builder.create sim in
  let a = Topology.Builder.add_host b ~name:"a" in
  let z = Topology.Builder.add_host b ~name:"z" in
  Topology.Builder.link b a z ~gbps:100.0 ~prop:(Time.us 1.0);
  let t = Topology.Builder.finish b in
  let port = (Topology.ports t a).(0) in
  let got = ref [] and posted = ref [] in
  (Topology.node t z).Node.handler <- (fun ~in_port:_ pkt -> got := (Sim.now sim, pkt) :: !got);
  for k = 0 to 4 do
    (* 1000 B serializes in 80 ns, so the data stream arrives 50 ns after
       each control frame sent 30 ns into the same 100 ns slot *)
    ignore
      (Sim.at sim (k * 100) (fun () ->
           let d = Packet.make Packet.Data ~dst:z ~size:1000 () in
           Port.send port d;
           posted := (Sim.now sim + 80 + Time.us 1.0, d) :: !posted));
    ignore
      (Sim.at sim ((k * 100) + 30) (fun () ->
           let c = Packet.make Packet.Pause ~dst:z ~size:64 () in
           Port.send_ctrl port c;
           posted := (Sim.now sim + Time.us 1.0, c) :: !posted))
  done;
  ignore (Sim.run_until_idle sim);
  let expected = List.sort (fun (t1, _) (t2, _) -> Int.compare t1 t2) !posted in
  let got = List.rev !got in
  check Alcotest.int "every packet delivered" 10 (List.length got);
  List.iter2
    (fun (te, pe) (tg, pg) ->
      check Alcotest.int "arrival time" te tg;
      Alcotest.(check bool) "the packet it was posted with" true (pe == pg))
    expected got

let prop_routing_reaches_any_pair =
  QCheck.Test.make ~name:"clos paths always reach the destination" ~count:60
    QCheck.(triple (int_range 2 4) (int_range 2 4) (int_range 2 5))
    (fun (spines, tors, hpt) ->
      let sim = Sim.create () in
      let cl = Topology.clos sim ~spines ~tors ~hosts_per_tor:hpt ~gbps:100.0 ~prop:1000 in
      let hosts = cl.Topology.cl_hosts in
      let ok = ref true in
      Array.iter
        (fun src ->
          Array.iter
            (fun dst ->
              if src <> dst then begin
                let p = Topology.path cl.Topology.t ~src ~dst in
                let len = List.length p in
                if len <> 2 && len <> 4 then ok := false
              end)
            hosts)
        hosts;
      !ok)

let suite =
  [
    ("flow lifecycle", `Quick, test_flow_lifecycle);
    ("flow invalid size", `Quick, test_flow_invalid_size);
    ("flow hash spread", `Quick, test_flow_hash_spread);
    ("packet data", `Quick, test_packet_data);
    ("packet indices", `Quick, test_packet_indices);
    ("packet control kinds", `Quick, test_packet_control_kinds);
    ("clos shape", `Quick, test_clos_shape);
    ("clos routing candidates", `Quick, test_clos_routing_candidates);
    ("path reaches destination", `Quick, test_path_walks_to_destination);
    ("ecmp consistent", `Quick, test_ecmp_consistent);
    ("ecmp spreads", `Quick, test_ecmp_spreads);
    ("ideal fct single packet", `Quick, test_ideal_fct_single_packet);
    ("ideal fct monotone", `Quick, test_ideal_fct_monotone_in_size);
    ("base rtt", `Quick, test_base_rtt);
    ("dumbbell bottleneck", `Quick, test_dumbbell_bottleneck);
    ("testbed shape", `Quick, test_testbed_shape);
    ("cross-dc shape", `Quick, test_cross_dc_shape);
    ("port transmission", `Quick, test_port_transmission);
    ("port ctrl bypass", `Quick, test_port_ctrl_bypass);
    ("node unattached", `Quick, test_node_unattached);
    ("port interleaved deliveries", `Quick, test_port_interleaved_deliveries);
    QCheck_alcotest.to_alcotest prop_routing_reaches_any_pair;
  ]
