(* Third test battery: ExpressPass switch shaping, queue-delay metrics,
   ideal-FCT header accounting, the PS fluid model behind Fig. 3,
   exp-common scaffolding, and misc utility paths. *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Flow = Bfc_net.Flow
module Packet = Bfc_net.Packet
module Node = Bfc_net.Node
module Port = Bfc_net.Port
module Topology = Bfc_net.Topology
module Switch = Bfc_switch.Switch
module Scheme = Bfc_sim.Scheme
module Runner = Bfc_sim.Runner
module Metrics = Bfc_sim.Metrics
module Exp_common = Bfc_sim.Exp_common
module Dist = Bfc_workload.Dist

let check = Alcotest.check

(* --------------------- ExpressPass switch shaping ------------------ *)

let test_xpass_credit_shaping () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let t = st.Topology.s in
  let cfg = { Switch.default_config with Switch.queues_per_port = 4; buffer_bytes = max_int } in
  let route sw ~in_port:_ pkt =
    (Topology.candidates t ~node:(Switch.node_id sw) ~dst:(Packet.dst pkt)).(0)
  in
  let sw =
    Switch.create ~sim
      ~node:(Topology.node t st.Topology.st_switch)
      ~ports:(Topology.ports t st.Topology.st_switch)
      ~config:cfg ~route ()
  in
  Bfc_transport.Xpass_switch.attach sw ~mtu_wire:1048;
  let arrivals = ref [] in
  (Topology.node t st.Topology.st_receiver).Node.handler <-
    (fun ~in_port:_ pkt ->
      if Packet.kind pkt = Packet.Credit then arrivals := Sim.now sim :: !arrivals);
  let f = Flow.make ~id:1 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size:1000 ~arrival:0 () in
  (* burst 10 credits into the switch at t=0 *)
  for i = 1 to 10 do
    let c = Packet.make Packet.Credit ~flow:f ~dst:f.Flow.dst ~size:64 () in
    Packet.set_ctrl_a c i;
    Node.deliver (Topology.node t st.Topology.st_switch) ~in_port:0 c
  done;
  ignore (Sim.run_until_idle sim);
  let times = List.rev !arrivals in
  check Alcotest.int "all 10 forwarded" 10 (List.length times);
  (* consecutive credits at least one data-MTU serialization apart *)
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b - a) :: gaps rest
    | _ -> []
  in
  List.iter
    (fun g ->
      Alcotest.(check bool) (Printf.sprintf "gap %dns >= 83" g) true (g >= 83))
    (gaps times)

let test_xpass_credit_queue_cap () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let t = st.Topology.s in
  let cfg = { Switch.default_config with Switch.queues_per_port = 4; buffer_bytes = max_int } in
  let route sw ~in_port:_ pkt =
    (Topology.candidates t ~node:(Switch.node_id sw) ~dst:(Packet.dst pkt)).(0)
  in
  let sw =
    Switch.create ~sim
      ~node:(Topology.node t st.Topology.st_switch)
      ~ports:(Topology.ports t st.Topology.st_switch)
      ~config:cfg ~route ()
  in
  Bfc_transport.Xpass_switch.attach sw ~mtu_wire:1048;
  (Topology.node t st.Topology.st_receiver).Node.handler <- (fun ~in_port:_ _ -> ());
  let f = Flow.make ~id:1 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size:1000 ~arrival:0 () in
  for i = 1 to 40 do
    let c = Packet.make Packet.Credit ~flow:f ~dst:f.Flow.dst ~size:64 () in
    Packet.set_ctrl_a c i;
    Node.deliver (Topology.node t st.Topology.st_switch) ~in_port:0 c
  done;
  (* more than credit_cap (16) at once: the excess is dropped, which is
     ExpressPass's congestion signal *)
  Alcotest.(check bool) "excess credits dropped" true (Switch.drops sw > 0);
  check Alcotest.int "no data drops" 0 (Switch.data_drops sw)

(* ------------------------ Queue delay metrics ---------------------- *)

let test_watch_queue_delay () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let env = Runner.setup ~topo:st.Topology.s ~scheme:Scheme.bfc ~params:Runner.default_params in
  let delays =
    Metrics.watch_queue_delay env ~filter:(fun ~sw:_ ~egress:_ _ -> true)
  in
  let ids = ref 0 in
  let flows =
    Bfc_workload.Traffic.long_lived
      ~pairs:
        [|
          (st.Topology.st_senders.(0), st.Topology.st_receiver);
          (st.Topology.st_senders.(1), st.Topology.st_receiver);
        |]
      ~size:500_000 ~ids ()
  in
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 1.0);
  Alcotest.(check bool) "samples recorded" true (Bfc_util.Stats.Sample.count delays > 100);
  (* two line-rate flows on one link: someone must queue *)
  Alcotest.(check bool) "nonzero delays seen" true
    (Bfc_util.Stats.Sample.max delays > 0.0)

(* -------------------- Ideal FCT header accounting ------------------ *)

let test_ideal_fct_extra_header () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let plain =
    Topology.ideal_fct st.Topology.s ~src:st.Topology.st_senders.(0)
      ~dst:st.Topology.st_receiver ~size:100_000 ~mtu:1000 ()
  in
  let int_hdr =
    Topology.ideal_fct st.Topology.s ~src:st.Topology.st_senders.(0)
      ~dst:st.Topology.st_receiver ~size:100_000 ~mtu:1000 ~extra_header:80 ()
  in
  Alcotest.(check bool) "INT header inflates the ideal too" true (int_hdr > plain)

let test_slowdown_uses_scheme_header () =
  (* HPCC's ideal accounts for its own 80B header, so a perfect HPCC run
     is not penalized for it *)
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let env = Runner.setup ~topo:st.Topology.s ~scheme:Scheme.hpcc ~params:Runner.default_params in
  let f = Flow.make ~id:1 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size:100_000 ~arrival:0 () in
  Runner.inject env [ f ];
  Runner.run env ~until:(Time.ms 2.0);
  Alcotest.(check bool) "completes" true (Flow.complete f);
  let s = Runner.slowdown env f in
  Alcotest.(check bool) (Printf.sprintf "lone flow near-ideal (%.3f)" s) true (s < 1.15)

(* ----------------------- Fig. 3 PS fluid model --------------------- *)

let test_ps_trace_sane () =
  let trace =
    Bfc_sim.Exp_motivation.ps_trace ~dist:Dist.google ~gbps:100.0 ~load:0.6 ~duration:5e6
      ~seed:9
  in
  Alcotest.(check bool) "events recorded" true (Array.length trace > 100);
  (* counts are nonnegative and change by arrival/departure steps *)
  Array.iter (fun (_, n) -> Alcotest.(check bool) "n >= 0" true (n >= 0)) trace;
  let times = Array.map fst trace in
  let sorted = Array.copy times in
  Array.sort compare sorted;
  check Alcotest.(array (float 1e-9)) "timestamps nondecreasing" sorted times

let test_ps_fair_share_change_scales () =
  let trace =
    Bfc_sim.Exp_motivation.ps_trace ~dist:Dist.google ~gbps:100.0 ~load:0.6 ~duration:2e7
      ~seed:9
  in
  let short =
    Bfc_sim.Exp_motivation.fair_share_change trace ~duration:2e7 ~interval:8e3
  in
  let long =
    Bfc_sim.Exp_motivation.fair_share_change trace ~duration:2e7 ~interval:512e3
  in
  Alcotest.(check bool)
    (Printf.sprintf "variability grows with interval (%.1f%% vs %.1f%%)" short long)
    true (long > short)

(* --------------------------- Exp scaffolding ----------------------- *)

let test_clos_scale_monotone () =
  let s1, t1, h1 = Exp_common.clos_scale Exp_common.Smoke in
  let s2, t2, h2 = Exp_common.clos_scale Exp_common.Quick in
  let s3, t3, h3 = Exp_common.clos_scale Exp_common.Paper in
  Alcotest.(check bool) "scales grow" true (s1 * t1 * h1 < s2 * t2 * h2 && s2 * t2 * h2 < s3 * t3 * h3);
  check Alcotest.(triple int int int) "paper scale is the paper's" (8, 8, 16) (s3, t3, h3)

let test_duration_scales_with_flow_size () =
  let g = Exp_common.duration Exp_common.Quick ~dist:Dist.google in
  let fb = Exp_common.duration Exp_common.Quick ~dist:Dist.fb_hadoop in
  Alcotest.(check bool) "bigger flows, longer trace" true (fb > g)

let test_default_incast () =
  check Alcotest.int "paper's 100:1" 100 Exp_common.default_incast.Exp_common.degree

(* ------------------------------ Misc util -------------------------- *)

let test_homa_unsched_prio_boundaries () =
  let p =
    Bfc_transport.Homa.params_for ~dist:Dist.google ~total_prios:8 ~rtt_bytes:100_000
  in
  let open Bfc_transport.Homa in
  check Alcotest.int "tiniest = prio 0" 0 (unsched_prio p ~size:1);
  check Alcotest.int "huge = last unsched level" (p.unsched_prios - 1)
    (unsched_prio p ~size:max_int)

let test_flow_table_mult_controls_collisions () =
  (* smaller tables produce more index collisions for the same flow set:
     a flow collides when its slot already holds an earlier flow's packet *)
  let collisions mult =
    let module Ft = Bfc_core.Flow_table in
    let ft = Ft.create ~egresses:1 ~queues_per_port:32 ~mult ~sticky:0 in
    let coll = ref 0 in
    for id = 0 to 499 do
      let f = Flow.make ~id ~src:0 ~dst:1 ~size:1 ~arrival:0 () in
      let slot = Ft.slot ft ~egress:0 ~fid_hash:(Flow.hash f.Flow.id) ~now:0 in
      if Ft.size ft slot > 0 then incr coll;
      Ft.set_size ft slot (Ft.size ft slot + 1)
    done;
    !coll
  in
  Alcotest.(check bool)
    (Printf.sprintf "4x (%d) worse than 100x (%d)" (collisions 4) (collisions 100))
    true
    (collisions 4 > collisions 100)

(* ------------------------------- Tracer ---------------------------- *)

(* The tracer's timeline, one (time in us, kind) per event, oldest first. *)
let timeline tracer =
  List.filter_map
    (fun line ->
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | at :: "node" :: _ :: kind :: _ ->
        Some (float_of_string (String.sub at 0 (String.length at - 2)), kind)
      | _ -> None)
    (String.split_on_char '\n' (Bfc_sim.Tracer.render ~limit:max_int tracer))

let test_tracer_records_pauses () =
  let sim = Sim.create () in
  let db = Topology.dumbbell sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let env = Runner.setup ~topo:db.Topology.d ~scheme:Scheme.bfc ~params:Runner.default_params in
  let tracer = Bfc_sim.Tracer.attach env ~capacity:256 in
  let ids = ref 0 in
  let flows =
    Bfc_workload.Traffic.long_lived
      ~pairs:
        [|
          (db.Topology.senders.(0), db.Topology.receiver);
          (db.Topology.senders.(1), db.Topology.receiver);
        |]
      ~size:200_000 ~ids ()
  in
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 1.0);
  Runner.drain env ~budget:(Time.ms 5.0);
  let balance = Bfc_sim.Tracer.pause_balance tracer in
  let pauses = List.fold_left (fun a (_, p, _) -> a + p) 0 balance in
  let resumes = List.fold_left (fun a (_, _, r) -> a + r) 0 balance in
  Alcotest.(check bool) "pauses observed" true (pauses > 0);
  check Alcotest.int "balanced" pauses resumes;
  (* chronological order *)
  let evs = timeline tracer in
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (sorted evs);
  (* the timeline agrees with the balance list *)
  let count kind = List.length (List.filter (fun (_, k) -> k = kind) evs) in
  check Alcotest.int "balance sums pauses" (count "PAUSE") pauses;
  check Alcotest.int "balance sums resumes" (count "RESUME") resumes

let test_tracer_ring_wraps () =
  let sim = Sim.create () in
  let db = Topology.dumbbell sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let env = Runner.setup ~topo:db.Topology.d ~scheme:Scheme.bfc ~params:Runner.default_params in
  let tracer = Bfc_sim.Tracer.attach env ~capacity:4 in
  let ids = ref 0 in
  let flows =
    Bfc_workload.Traffic.long_lived
      ~pairs:
        [|
          (db.Topology.senders.(0), db.Topology.receiver);
          (db.Topology.senders.(1), db.Topology.receiver);
        |]
      ~size:500_000 ~ids ()
  in
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 1.0);
  Alcotest.(check bool) "observed more than capacity" true
    (Bfc_obs.Trace.recorded (Bfc_sim.Tracer.trace tracer) > 4);
  check Alcotest.int "ring holds capacity" 4 (List.length (timeline tracer))

let test_jain_fairness_metric () =
  (* equal-rate synthetic flows: index 1; skewed flows: index < 1 *)
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let env = Runner.setup ~topo:st.Topology.s ~scheme:Scheme.bfc ~params:Runner.default_params in
  let mk id size fct =
    let f = Flow.make ~id ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size ~arrival:0 () in
    f.Flow.finish <- fct;
    f
  in
  let fair = [ mk 1 1000 100; mk 2 1000 100 ] in
  Alcotest.(check (float 1e-9)) "fair = 1" 1.0 (Metrics.jain_fairness env ~min_size:0 fair);
  let skew = [ mk 3 1000 100; mk 4 1000 1000 ] in
  Alcotest.(check bool) "skewed < 1" true (Metrics.jain_fairness env ~min_size:0 skew < 0.7)

let test_csv_export () =
  let table =
    { Exp_common.title = "t"; header = [ "a"; "b" ]; rows = [ [ "1"; "with,comma" ] ] }
  in
  let path = Filename.temp_file "bfc_csv" ".csv" in
  Exp_common.write_csv table ~path;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  check Alcotest.(list string) "csv content"
    [ "# t"; "a,b"; "1,\"with,comma\"" ]
    (List.rev !lines)

let suite =
  [
    ("tracer records pauses", `Quick, test_tracer_records_pauses);
    ("tracer ring wraps", `Quick, test_tracer_ring_wraps);
    ("jain fairness metric", `Quick, test_jain_fairness_metric);
    ("csv export", `Quick, test_csv_export);
    ("xpass credit shaping", `Quick, test_xpass_credit_shaping);
    ("xpass credit queue cap", `Quick, test_xpass_credit_queue_cap);
    ("watch queue delay", `Quick, test_watch_queue_delay);
    ("ideal fct extra header", `Quick, test_ideal_fct_extra_header);
    ("slowdown respects scheme header", `Quick, test_slowdown_uses_scheme_header);
    ("ps trace sane", `Quick, test_ps_trace_sane);
    ("ps fair-share change scales", `Quick, test_ps_fair_share_change_scales);
    ("clos scale monotone", `Quick, test_clos_scale_monotone);
    ("duration scales", `Quick, test_duration_scales_with_flow_size);
    ("default incast", `Quick, test_default_incast);
    ("homa prio boundaries", `Quick, test_homa_unsched_prio_boundaries);
    ("flow table mult vs collisions", `Quick, test_flow_table_mult_controls_collisions);
  ]
