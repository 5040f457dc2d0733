(* Second test battery: BFC variants (sampling, incast label, sticky
   reassignment, bitmap refresh, th factor), scheme naming, metrics
   filtering, end-to-end runs of receiver-driven schemes on micro
   topologies, and additional properties. *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Flow = Bfc_net.Flow
module Packet = Bfc_net.Packet
module Node = Bfc_net.Node
module Port = Bfc_net.Port
module Topology = Bfc_net.Topology
module Switch = Bfc_switch.Switch
module Dataplane = Bfc_core.Dataplane
module Flow_table = Bfc_core.Flow_table
module Threshold = Bfc_core.Threshold
module Scheme = Bfc_sim.Scheme
module Runner = Bfc_sim.Runner
module Metrics = Bfc_sim.Metrics
module Exp_common = Bfc_sim.Exp_common
module Host = Bfc_transport.Host
module Dist = Bfc_workload.Dist

let check = Alcotest.check

(* --------------------- BFC dataplane variants ---------------------- *)

(* One switch with a sender and receiver; deliver packets by hand. *)
let mk_one_switch ?(queues = 8) ?(dpcfg = Dataplane.default_config) () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let t = st.Topology.s in
  let cfg = { Switch.default_config with Switch.queues_per_port = queues } in
  let route sw ~in_port:_ pkt =
    (Topology.candidates t ~node:(Switch.node_id sw) ~dst:(Packet.dst pkt)).(0)
  in
  let sw =
    Switch.create ~sim
      ~node:(Topology.node t st.Topology.st_switch)
      ~ports:(Topology.ports t st.Topology.st_switch)
      ~config:cfg ~route ()
  in
  let dp = Dataplane.attach sw { dpcfg with Dataplane.max_upstream_q = 16 } in
  (Topology.node t st.Topology.st_receiver).Node.handler <- (fun ~in_port:_ _ -> ());
  (Topology.node t st.Topology.st_senders.(0)).Node.handler <- (fun ~in_port:_ _ -> ());
  (Topology.node t st.Topology.st_senders.(1)).Node.handler <- (fun ~in_port:_ _ -> ());
  (sim, st, t, sw, dp)

let inject t st pkt = Node.deliver (Topology.node t st.Topology.st_switch) ~in_port:0 pkt

let mk_data flow seq =
  let p = Packet.data ~flow ~seq ~payload:1000 () in
  Packet.set_upstream_q p 1;
  p

let test_sticky_assignment_retained () =
  let sim, st, t, _sw, dp = mk_one_switch () in
  let f = Flow.make ~id:900 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size:1_000_000 ~arrival:0 () in
  inject t st (mk_data f 0);
  let ft = Dataplane.flow_table dp in
  (* an index names its slot until the next lookup, so take it afresh *)
  let slot e = Flow_table.slot ft ~egress:e ~fid_hash:(Flow.hash f.Flow.id) ~now:(Sim.now sim) in
  (* the receiver-facing egress: the one whose slot the packet assigned *)
  match List.find_opt (fun e -> Flow_table.q ft (slot e) >= 0) [ 0; 1; 2 ] with
  | None -> Alcotest.fail "no assignment recorded"
  | Some e ->
    let q0 = Flow_table.q ft (slot e) in
    (* drain, then send again shortly after (within 2 HRTT = 4 us) *)
    ignore (Sim.run sim ~until:(Time.us 3.0));
    check Alcotest.int "entry drained" 0 (Flow_table.size ft (slot e));
    inject t st (mk_data f 1000);
    check Alcotest.int "sticky: same queue reused" q0 (Flow_table.q ft (slot e));
    (* now wait well beyond the sticky threshold; a new packet may reassign *)
    ignore (Sim.run sim ~until:(Time.ms 1.0));
    inject t st (mk_data f 2000);
    Alcotest.(check bool) "assignment still valid" true (Flow_table.q ft (slot e) >= 0)

let test_incast_label_queue_zero () =
  let sim, st, t, sw, _dp =
    mk_one_switch ~dpcfg:{ Dataplane.default_config with Dataplane.incast_label = true } ()
  in
  let f =
    Flow.make ~id:901 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver
      ~size:1_000_000 ~arrival:0 ~is_incast:true ()
  in
  ignore sim;
  (* find receiver egress *)
  let egress = ref (-1) in
  Array.iteri
    (fun i p -> if (Port.peer p).Node.id = st.Topology.st_receiver then egress := i)
    (Topology.ports t st.Topology.st_switch);
  inject t st (mk_data f 0);
  inject t st (mk_data f 1000);
  (* one packet is serializing; the other must sit in queue 0 *)
  let q0 = Switch.queue sw ~egress:!egress ~queue:0 in
  Alcotest.(check bool) "incast flow pinned to queue 0" true (Bfc_switch.Fifo.length q0 >= 1)

let test_sampling_keeps_tables_sane () =
  let sim, st, t, _sw, dp =
    mk_one_switch ~dpcfg:{ Dataplane.default_config with Dataplane.sampling = 0.5 } ()
  in
  let f = Flow.make ~id:902 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size:1_000_000 ~arrival:0 () in
  for k = 0 to 49 do
    inject t st (mk_data f (k * 1000))
  done;
  ignore (Sim.run_until_idle sim);
  (* all packets forwarded; the flow table must have drained to zero *)
  let ft = Dataplane.flow_table dp in
  for e = 0 to 2 do
    let slot = Flow_table.slot ft ~egress:e ~fid_hash:(Flow.hash f.Flow.id) ~now:(Sim.now sim) in
    check Alcotest.int "ft size drained" 0 (Flow_table.size ft slot)
  done;
  check Alcotest.int "pause counters drained" 0
    (Bfc_core.Pause_counter.total (Dataplane.pause_counters dp))

let test_fixed_th_overrides () =
  let _, _, _, _, dp =
    mk_one_switch ~dpcfg:{ Dataplane.default_config with Dataplane.fixed_th = Some 12345 } ()
  in
  check Alcotest.int "fixed threshold" 12345 (Dataplane.threshold dp ~egress:0)

let test_th_factor_scales () =
  let _, _, _, _, dp1 = mk_one_switch () in
  let _, _, _, _, dp2 =
    mk_one_switch ~dpcfg:{ Dataplane.default_config with Dataplane.th_factor = 2.0 } ()
  in
  check Alcotest.int "double factor doubles Th"
    (2 * Dataplane.threshold dp1 ~egress:0)
    (Dataplane.threshold dp2 ~egress:0)

let test_bitmap_refresh_repauses () =
  (* adversarial: resume a queue by hand even though the downstream's pause
     counter is non-zero; the periodic bitmap must re-pause it *)
  let sim = Sim.create () in
  let b = Topology.Builder.create sim in
  let up = Topology.Builder.add_switch b ~name:"up" in
  let down = Topology.Builder.add_switch b ~name:"down" in
  let h = Topology.Builder.add_host b ~name:"h" in
  let r = Topology.Builder.add_host b ~name:"r" in
  Topology.Builder.link b h up ~gbps:100.0 ~prop:(Time.us 1.0);
  Topology.Builder.link b up down ~gbps:100.0 ~prop:(Time.us 1.0);
  Topology.Builder.link b down r ~gbps:100.0 ~prop:(Time.us 1.0);
  let t = Topology.Builder.finish b in
  let route sw ~in_port:_ pkt =
    (Topology.candidates t ~node:(Switch.node_id sw) ~dst:(Packet.dst pkt)).(0)
  in
  let cfg = { Switch.default_config with Switch.queues_per_port = 4 } in
  let mk id dpcfg =
    let sw = Switch.create ~sim ~node:(Topology.node t id) ~ports:(Topology.ports t id) ~config:cfg ~route () in
    (sw, Dataplane.attach sw { dpcfg with Dataplane.max_upstream_q = 8 })
  in
  let up_sw, _ = mk up Dataplane.default_config in
  let _, down_dp =
    mk down
      { Dataplane.default_config with Dataplane.bitmap_period = Some (Time.us 20.0) }
  in
  (Topology.node t r).Node.handler <- (fun ~in_port:_ _ -> ());
  (Topology.node t h).Node.handler <- (fun ~in_port:_ _ -> ());
  (* force a pause state at down: inject packets with tiny fixed Th *)
  ignore down_dp;
  let f = Flow.make ~id:903 ~src:h ~dst:r ~size:1_000_000 ~arrival:0 () in
  (* flood down via up so down counts and pauses up's queue *)
  for k = 0 to 60 do
    ignore
      (Sim.at sim (k * 84) (fun () ->
           let p = mk_data f (k * 1000) in
           Node.deliver (Topology.node t up) ~in_port:0 p))
  done;
  ignore (Sim.run sim ~until:(Time.us 30.0));
  (* find up's egress toward down and the paused queue *)
  let up_egress = ref (-1) in
  Array.iteri
    (fun i p -> if (Port.peer p).Node.id = down then up_egress := i)
    (Topology.ports t up);
  let paused_q = ref (-1) in
  Array.iteri
    (fun qi q -> if q.Bfc_switch.Fifo.paused then paused_q := qi)
    (Switch.queues up_sw ~egress:!up_egress);
  if !paused_q >= 0 then begin
    (* adversarially unpause; the bitmap refresh must re-pause within 20us *)
    Switch.set_queue_paused up_sw ~egress:!up_egress ~queue:!paused_q false;
    ignore (Sim.run sim ~until:(Sim.now sim + Time.us 25.0));
    let q = Switch.queue up_sw ~egress:!up_egress ~queue:!paused_q in
    if Bfc_core.Pause_counter.total (Dataplane.pause_counters down_dp) > 0 then
      Alcotest.(check bool) "bitmap repaused the queue" true q.Bfc_switch.Fifo.paused
  end
  (* if nothing was paused the flood drained early; the invariant tests in
     test_bfc cover the pause path itself *)

(* --------------------------- Scheme names -------------------------- *)

let test_scheme_names () =
  check Alcotest.string "bfc" "BFC" (Scheme.name Scheme.bfc);
  check Alcotest.string "bfc128" "BFC (128)" (Scheme.name (Scheme.bfc_q 128));
  check Alcotest.string "srf" "BFC-SRF" (Scheme.name Scheme.bfc_srf);
  check Alcotest.string "homa" "Homa" (Scheme.name Scheme.homa);
  check Alcotest.string "homa ecmp" "Homa-ECMP" (Scheme.name Scheme.homa_ecmp);
  check Alcotest.string "hpcc-pfc+sfq" "HPCC-PFC+SFQ"
    (Scheme.name (Scheme.Hpcc_pfc { sfq = true; dqa = false }));
  Alcotest.(check bool) "stochastic tagged" true
    (String.length
       (Scheme.name (Scheme.Bfc { Scheme.bfc_default with Scheme.assignment = Bfc_core.Dqa.Stochastic }))
    > 3)

let test_experiments_registry () =
  let module E = Bfc_sim.Experiments in
  Alcotest.(check bool) "30+ targets" true (List.length E.all >= 30);
  (* names unique *)
  let names = List.map (fun t -> t.E.t_name) E.all in
  check Alcotest.int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_experiments_resolve () =
  let module E = Bfc_sim.Experiments in
  let names = function
    | Ok ts -> List.map (fun t -> t.E.t_name) ts
    | Error m -> Alcotest.fail m
  in
  check Alcotest.(list string) "given order" [ "fig9"; "fig7" ]
    (names (E.resolve [ "fig9"; "fig7" ]));
  check Alcotest.int "no names: every target" (List.length E.all)
    (List.length (names (E.resolve [])));
  match E.resolve [ "fig7"; "fig99" ] with
  | Ok _ -> Alcotest.fail "unknown target resolved"
  | Error m ->
    check Alcotest.string "names the unknown target" "unknown target fig99 (see `bfc_sim list`)" m

let test_profile_of_string () =
  Alcotest.(check bool) "quick" true (Exp_common.profile_of_string "quick" = Exp_common.Quick);
  Alcotest.(check bool) "raises" true
    (try
       ignore (Exp_common.profile_of_string "warp");
       false
     with Invalid_argument _ -> true)

(* ------------------------ Metrics filtering ------------------------ *)

let test_metrics_incast_separation () =
  let r =
    Exp_common.run_std
      {
        (Exp_common.std Exp_common.Smoke Scheme.bfc) with
        Exp_common.sp_dist = Dist.google;
        sp_incast = Some { Exp_common.degree = 5; agg_frac_of_paper = 0.5 };
      }
  in
  let env = r.Exp_common.env and flows = r.Exp_common.flows in
  let bg = Metrics.fct_table env ~incast:false flows in
  let inc = Metrics.fct_table env ~incast:true flows in
  let count t = List.fold_left (fun a s -> a + s.Metrics.count) 0 t in
  let n_incast_flows = List.length (List.filter (fun f -> f.Flow.is_incast) flows) in
  check Alcotest.int "incast bucketed separately" n_incast_flows (count inc);
  Alcotest.(check bool) "background nonempty" true (count bg > 100)

let test_metrics_since_filter () =
  let r = Exp_common.run_std { (Exp_common.std Exp_common.Smoke Scheme.bfc) with Exp_common.sp_dist = Dist.google } in
  let all = Metrics.fct_table r.Exp_common.env ~since:0 r.Exp_common.flows in
  let late = Metrics.fct_table r.Exp_common.env ~since:(Time.us 200.0) r.Exp_common.flows in
  let count t = List.fold_left (fun a s -> a + s.Metrics.count) 0 t in
  Alcotest.(check bool) "since filters" true (count late < count all)

let test_long_avg_threshold () =
  let r = Exp_common.run_std { (Exp_common.std Exp_common.Smoke Scheme.bfc) with Exp_common.sp_dist = Dist.google } in
  (* google's max flow is 3MB; with the default >3MB threshold there are
     few or no long flows, with 100KB plenty *)
  let v = Metrics.long_avg r.Exp_common.env ~threshold:100_000 r.Exp_common.flows in
  Alcotest.(check bool) "long avg computable at 100K" true (Float.is_nan v = false && v >= 1.0)

(* --------------------- Receiver-driven micro runs ------------------- *)

let micro_run scheme =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:4 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let env = Runner.setup ~topo:st.Topology.s ~scheme ~params:Runner.default_params in
  let ids = ref 0 in
  let flows =
    List.concat_map
      (fun i ->
        [
          Flow.make ~id:(incr ids; !ids) ~src:st.Topology.st_senders.(i)
            ~dst:st.Topology.st_receiver ~size:(50_000 * (i + 1)) ~arrival:(Time.us (float_of_int i)) ();
        ])
      [ 0; 1; 2 ]
  in
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 2.0);
  Runner.drain env ~budget:(Time.ms 20.0);
  (env, flows)

let test_homa_micro_completes () =
  let env, flows = micro_run Scheme.homa in
  List.iter
    (fun f -> Alcotest.(check bool) "homa flow done" true (Flow.complete f))
    flows;
  check Alcotest.int "no drops" 0 (Runner.total_drops env)

let test_homa_srpt_favors_short () =
  let env, flows = micro_run Scheme.homa in
  ignore env;
  let by_size = List.sort (fun a b -> compare a.Flow.size b.Flow.size) flows in
  let shortest = List.hd by_size and longest = List.nth by_size (List.length by_size - 1) in
  Alcotest.(check bool) "shortest finishes first" true
    (Flow.fct shortest + shortest.Flow.arrival
    <= Flow.fct longest + longest.Flow.arrival)

let test_xpass_micro_completes () =
  let env, flows = micro_run Scheme.expresspass in
  List.iter (fun f -> Alcotest.(check bool) "xpass flow done" true (Flow.complete f)) flows;
  check Alcotest.int "no data drops" 0 (Runner.total_drops env)

let test_xpass_latency_floor () =
  (* xpass needs a credit round trip before data: FCT >= ~2x base RTT even
     for a tiny flow *)
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let env = Runner.setup ~topo:st.Topology.s ~scheme:Scheme.expresspass ~params:Runner.default_params in
  let f = Flow.make ~id:1 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size:1000 ~arrival:0 () in
  Runner.inject env [ f ];
  Runner.run env ~until:(Time.ms 1.0);
  Alcotest.(check bool) "completes" true (Flow.complete f);
  let rtt = Runner.base_rtt env in
  Alcotest.(check bool)
    (Printf.sprintf "credit rtt floor (fct %d vs rtt %d)" (Flow.fct f) rtt)
    true
    (Flow.fct f >= (3 * rtt) / 2)

let test_dcqcn_micro_completes () =
  let env, flows = micro_run Scheme.dcqcn in
  ignore env;
  List.iter (fun f -> Alcotest.(check bool) "dcqcn flow done" true (Flow.complete f)) flows

let test_bfc_nic_variant_completes () =
  let scheme =
    Scheme.Bfc
      { Scheme.bfc_default with Scheme.nic_respect_pause = false; window_cap = Some 1.0 }
  in
  let env, flows = micro_run scheme in
  List.iter (fun f -> Alcotest.(check bool) "bfc-nic done" true (Flow.complete f)) flows;
  check Alcotest.int "no drops" 0 (Runner.total_drops env)

(* ----------------------------- Properties -------------------------- *)

let prop_threshold_decreasing_in_n =
  QCheck.Test.make ~name:"Th decreases with more active queues" ~count:100
    QCheck.(pair (int_range 1 100) (int_range 1 100))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Threshold.bytes ~hrtt:2000 ~gbps:100.0 ~n_active:hi ~factor:1.0
      <= Threshold.bytes ~hrtt:2000 ~gbps:100.0 ~n_active:lo ~factor:1.0)

let prop_dctcp_window_floor =
  QCheck.Test.make ~name:"dctcp window never drops below one MTU" ~count:100
    QCheck.(list (pair bool (int_range 0 100_000)))
    (fun acks ->
      let d = Bfc_transport.Dctcp.create ~mtu:1000 ~bdp:100_000 ~slow_start:false ~g:0.0625 in
      let una = ref 0 in
      List.iter
        (fun (marked, bytes) ->
          una := !una + bytes;
          Bfc_transport.Dctcp.on_ack d ~acked:bytes ~marked ~snd_una:!una
            ~snd_nxt:(!una + 100_000))
        acks;
      Bfc_transport.Dctcp.window d >= 1000)

let prop_ideal_fct_subadditive_in_path =
  QCheck.Test.make ~name:"ideal fct grows with distance" ~count:50
    QCheck.(int_range 1000 1_000_000)
    (fun size ->
      let sim = Sim.create () in
      let cl = Topology.clos sim ~spines:2 ~tors:2 ~hosts_per_tor:2 ~gbps:100.0 ~prop:1000 in
      let h = cl.Topology.cl_hosts in
      let near = Topology.ideal_fct cl.Topology.t ~src:h.(0) ~dst:h.(1) ~size ~mtu:1000 () in
      let far = Topology.ideal_fct cl.Topology.t ~src:h.(0) ~dst:h.(3) ~size ~mtu:1000 () in
      near < far)

let suite =
  [
    ("sticky assignment", `Quick, test_sticky_assignment_retained);
    ("incast label queue 0", `Quick, test_incast_label_queue_zero);
    ("sampling variant sane", `Quick, test_sampling_keeps_tables_sane);
    ("fixed th", `Quick, test_fixed_th_overrides);
    ("th factor", `Quick, test_th_factor_scales);
    ("bitmap refresh repauses", `Quick, test_bitmap_refresh_repauses);
    ("scheme names", `Quick, test_scheme_names);
    ("experiments registry", `Quick, test_experiments_registry);
    ("experiments resolve", `Quick, test_experiments_resolve);
    ("profile parsing", `Quick, test_profile_of_string);
    ("metrics incast separation", `Quick, test_metrics_incast_separation);
    ("metrics since filter", `Quick, test_metrics_since_filter);
    ("metrics long avg threshold", `Quick, test_long_avg_threshold);
    ("homa micro completes", `Quick, test_homa_micro_completes);
    ("homa srpt favors short", `Quick, test_homa_srpt_favors_short);
    ("xpass micro completes", `Quick, test_xpass_micro_completes);
    ("xpass latency floor", `Quick, test_xpass_latency_floor);
    ("dcqcn micro completes", `Quick, test_dcqcn_micro_completes);
    ("bfc-nic variant completes", `Quick, test_bfc_nic_variant_completes);
    QCheck_alcotest.to_alcotest prop_threshold_decreasing_in_n;
    QCheck_alcotest.to_alcotest prop_dctcp_window_floor;
    QCheck_alcotest.to_alcotest prop_ideal_fct_subadditive_in_path;
  ]
