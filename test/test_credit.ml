(* Tests for the Sec-5 extensions: the credit-based lossless dataplane and
   wire fault injection / idempotent pause state. *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Flow = Bfc_net.Flow
module Packet = Bfc_net.Packet
module Port = Bfc_net.Port
module Topology = Bfc_net.Topology
module Balance = Bfc_core.Credit_dataplane.Balance
module Credit_dataplane = Bfc_core.Credit_dataplane
module Scheme = Bfc_sim.Scheme
module Runner = Bfc_sim.Runner
module Exp_common = Bfc_sim.Exp_common
module Dist = Bfc_workload.Dist

let check = Alcotest.check

(* ------------------------------ Balance ---------------------------- *)

let test_balance_consume_replenish () =
  let b = Balance.create ~queues:4 ~initial:3000 in
  check Alcotest.int "initial" 3000 (Balance.get b ~queue:2);
  (* 3000 - 1048 = 1952 >= 1048: still enough for the next head *)
  Alcotest.(check bool) "not blocked" false (Balance.consume b ~queue:2 ~bytes:1048 ~next:1048);
  (* 1952 - 1048 = 904 < 1048: blocked *)
  Alcotest.(check bool) "second blocks" true (Balance.consume b ~queue:2 ~bytes:1048 ~next:1048);
  Alcotest.(check bool) "replenish unblocks" true
    (Balance.replenish b ~queue:2 ~bytes:1048 ~next:1048);
  check Alcotest.int "exact accounting" (3000 - (2 * 1048) + 1048) (Balance.get b ~queue:2)

let test_balance_empty_queue_never_blocks () =
  let b = Balance.create ~queues:1 ~initial:100 in
  Alcotest.(check bool) "next=0 means nothing to block" false
    (Balance.consume b ~queue:0 ~bytes:100 ~next:0)

let prop_balance_conserved =
  QCheck.Test.make ~name:"credit balance equals initial - consumed + replenished" ~count:200
    QCheck.(list (pair bool (int_range 1 2000)))
    (fun ops ->
      let b = Balance.create ~queues:1 ~initial:10_000 in
      let expected = ref 10_000 in
      List.iter
        (fun (consume, bytes) ->
          if consume then begin
            ignore (Balance.consume b ~queue:0 ~bytes ~next:1000);
            expected := !expected - bytes
          end
          else begin
            ignore (Balance.replenish b ~queue:0 ~bytes ~next:1000);
            expected := !expected + bytes
          end)
        ops;
      Balance.get b ~queue:0 = !expected)

(* ------------------------- Credit dataplane ------------------------ *)

let smoke scheme =
  Exp_common.run_std
    { (Exp_common.std Exp_common.Smoke scheme) with Exp_common.sp_dist = Dist.google }

let test_credit_scheme_completes_losslessly () =
  let r = smoke Scheme.bfc_credit in
  check Alcotest.int "all complete" (Runner.injected r.Exp_common.env)
    (Runner.completed r.Exp_common.env);
  check Alcotest.int "zero drops" 0 (Runner.total_drops r.Exp_common.env)

let test_credit_matches_bfc_quality () =
  let c = smoke Scheme.bfc_credit and b = smoke Scheme.bfc in
  let p99 r = Bfc_sim.Metrics.short_p99 r.Exp_common.env r.Exp_common.flows in
  Alcotest.(check bool)
    (Printf.sprintf "credit variant keeps BFC-grade tails (%.2f vs %.2f)" (p99 c) (p99 b))
    true
    (p99 c < 2.0 *. p99 b +. 0.5)

let test_credit_under_extreme_incast () =
  let r =
    Exp_common.run_std
      {
        (Exp_common.std Exp_common.Smoke Scheme.bfc_credit) with
        Exp_common.sp_dist = Dist.google;
        sp_incast = Some { Exp_common.degree = 30; agg_frac_of_paper = 1.0 };
      }
  in
  check Alcotest.int "lossless under incast" 0 (Runner.total_drops r.Exp_common.env);
  check Alcotest.int "all complete" (Runner.injected r.Exp_common.env)
    (Runner.completed r.Exp_common.env)

let test_credit_bounded_occupancy () =
  (* peak buffer occupancy can never exceed what the credits allow *)
  let r =
    Exp_common.run_std
      {
        (Exp_common.std Exp_common.Smoke Scheme.bfc_credit) with
        Exp_common.sp_dist = Dist.google;
        sp_incast = Some { Exp_common.degree = 20; agg_frac_of_paper = 1.0 };
      }
  in
  (* the theoretical reservation: ports x upstream queues x 25 KB, per the
     biggest switch in the smoke Clos (2x2x4: ToR has 4+2=6 ports) *)
  let bound = 6 * 130 * 25_000 in
  Alcotest.(check bool) "occupancy below the credit reservation" true
    (int_of_float (Bfc_util.Stats.Sample.max r.Exp_common.buffers) < bound)

(* ------------------------- Fault injection ------------------------- *)

let test_port_fault_drops () =
  let sim = Sim.create () in
  let b = Topology.Builder.create sim in
  let a = Topology.Builder.add_host b ~name:"a" in
  let z = Topology.Builder.add_host b ~name:"z" in
  Topology.Builder.link b a z ~gbps:100.0 ~prop:(Time.us 1.0);
  let t = Topology.Builder.finish b in
  let got = ref 0 in
  (Topology.node t z).Bfc_net.Node.handler <- (fun ~in_port:_ _ -> incr got);
  let port = (Topology.ports t a).(0) in
  Port.set_fault port (fun pkt -> Packet.kind pkt = Packet.Pause);
  let pause = Packet.make Packet.Pause ~dst:z ~size:64 () in
  Port.send_ctrl port pause;
  Port.send_ctrl port (Packet.make Packet.Resume ~dst:z ~size:64 ());
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "only the resume arrived" 1 !got;
  check Alcotest.int "fault counted" 1 (Port.faults_injected port)

let test_lost_resume_strands_without_refresh () =
  (* deliberately drop all Resume packets: some queue stays paused and some
     flows never finish; enabling the bitmap refresh fixes it *)
  let run ~bitmap =
    let scheme =
      Scheme.Bfc
        {
          Scheme.bfc_default with
          Scheme.bitmap_period = (if bitmap then Some (Time.us 10.0) else None);
        }
    in
    let sim = Sim.create () in
    let cl = Topology.clos sim ~spines:2 ~tors:2 ~hosts_per_tor:4 ~gbps:100.0 ~prop:(Time.us 1.0) in
    let env = Runner.setup ~topo:cl.Topology.t ~scheme ~params:Runner.default_params in
    (* drop ~half the Resume packets deterministically *)
    let flip = ref false in
    for g = 0 to Topology.total_ports cl.Topology.t - 1 do
      Port.set_fault
        (Topology.port_by_gid cl.Topology.t g)
        (fun pkt ->
          if Packet.kind pkt = Packet.Resume then begin
            flip := not !flip;
            !flip
          end
          else false)
    done;
    let ids = ref 0 in
    let dur = Time.us 400.0 in
    let flows =
      Bfc_workload.Traffic.generate
        {
          Bfc_workload.Traffic.hosts = cl.Topology.cl_hosts;
          dist = Dist.google;
          arrivals = Bfc_workload.Arrivals.lognormal_default;
          load = 0.7;
          ref_capacity_gbps = 400.0;
          core_fraction = 0.6;
          matrix = Bfc_workload.Traffic.Uniform;
          duration = dur;
          seed = 4;
          prio_classes = 1;
        }
        ~ids
    in
    Runner.inject env flows;
    Runner.run env ~until:dur;
    Runner.drain env ~budget:(Time.ms 4.0);
    (Runner.completed env, Runner.injected env)
  in
  let done_no, all_no = run ~bitmap:false in
  let done_yes, all_yes = run ~bitmap:true in
  Alcotest.(check bool)
    (Printf.sprintf "stranded flows without refresh (%d/%d)" done_no all_no)
    true (done_no < all_no);
  check Alcotest.int "bitmap refresh recovers everything" all_yes done_yes

(* ------------------------- Live deadlock --------------------------- *)

let test_ring_deadlock_and_prevention () =
  let run ~filter =
    let sim = Sim.create () in
    let b = Topology.Builder.create sim in
    let n = 5 in
    let sws =
      Array.init n (fun i -> Topology.Builder.add_switch b ~name:(Printf.sprintf "s%d" i))
    in
    let hosts =
      Array.map
        (fun sw ->
          let h = Topology.Builder.add_host b ~name:(Printf.sprintf "h%d" sw) in
          Topology.Builder.link b h sw ~gbps:100.0 ~prop:(Time.us 1.0);
          h)
        sws
    in
    for i = 0 to n - 1 do
      Topology.Builder.link b sws.(i) sws.((i + 1) mod n) ~gbps:100.0 ~prop:(Time.us 1.0)
    done;
    let topo = Topology.Builder.finish b in
    (* single shared data queue per port: the regime where cyclic buffer
       dependencies wedge for real *)
    let scheme = Scheme.Bfc { Scheme.bfc_default with Scheme.queues = 2 } in
    let env =
      Runner.setup ~topo ~scheme ~params:{ Runner.default_params with deadlock_filter = filter }
    in
    let ids = ref 0 in
    let flows =
      List.concat_map
        (fun i ->
          List.map
            (fun hop ->
              let id = !ids in
              incr ids;
              Flow.make ~id ~src:hosts.(i) ~dst:hosts.((i + hop) mod n) ~size:2_000_000
                ~arrival:0 ())
            [ 1; 2 ])
        (List.init n (fun i -> i))
    in
    Runner.inject env flows;
    Runner.run env ~until:(Time.ms 2.0);
    Runner.drain env ~budget:(Time.ms 20.0);
    (Runner.completed env, Runner.injected env)
  in
  let done_raw, all_raw = run ~filter:false in
  let done_filtered, all_filtered = run ~filter:true in
  Alcotest.(check bool)
    (Printf.sprintf "cyclic ring deadlocks without prevention (%d/%d)" done_raw all_raw)
    true (done_raw < all_raw);
  check Alcotest.int "App B elision prevents the deadlock" all_filtered done_filtered

let suite =
  [
    ("ring deadlock + prevention", `Quick, test_ring_deadlock_and_prevention);
    ("balance consume/replenish", `Quick, test_balance_consume_replenish);
    ("balance empty queue", `Quick, test_balance_empty_queue_never_blocks);
    ("credit scheme lossless", `Quick, test_credit_scheme_completes_losslessly);
    ("credit matches bfc quality", `Quick, test_credit_matches_bfc_quality);
    ("credit extreme incast", `Quick, test_credit_under_extreme_incast);
    ("credit bounded occupancy", `Quick, test_credit_bounded_occupancy);
    ("port fault injection", `Quick, test_port_fault_drops);
    ("lost resume strands; bitmap recovers", `Quick, test_lost_resume_strands_without_refresh);
    QCheck_alcotest.to_alcotest prop_balance_conserved;
  ]
