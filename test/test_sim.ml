(* Integration tests: full scheme runs on small topologies, invariants
   (completion, conservation, no-drop for BFC, determinism), and metrics. *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Flow = Bfc_net.Flow
module Topology = Bfc_net.Topology
module Switch = Bfc_switch.Switch
module Scheme = Bfc_sim.Scheme
module Runner = Bfc_sim.Runner
module Metrics = Bfc_sim.Metrics
module Exp_common = Bfc_sim.Exp_common
module Traffic = Bfc_workload.Traffic
module Dist = Bfc_workload.Dist
module Arrivals = Bfc_workload.Arrivals

let check = Alcotest.check

let smoke scheme ?(seed = 1) ?(incast = None) ?(load = 0.6) () =
  Exp_common.run_std
    {
      (Exp_common.std Exp_common.Smoke scheme) with
      Exp_common.sp_seed = seed;
      sp_incast = incast;
      sp_load = load;
      sp_dist = Dist.google;
    }

let fixture name =
  if Sys.file_exists "fixtures/sim" then "fixtures/sim/" ^ name else "test/fixtures/sim/" ^ name

let read_fixture path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* One line per run: the scheme's name and the MD5 of [Test_dispatch.render]
   of its run (counters, per-flow records, FCT rows, buffer p99). *)
let digest_line scheme r =
  Printf.sprintf "%s %s\n" (Scheme.name scheme) (Digest.to_hex (Digest.string (Test_dispatch.render r)))

let presets =
  [
    Scheme.bfc;
    Scheme.bfc_srf;
    Scheme.Ideal_fq;
    Scheme.Ideal_srf;
    Scheme.dctcp;
    Scheme.dcqcn;
    Scheme.hpcc;
    Scheme.hpcc_pfc;
    Scheme.expresspass;
    Scheme.homa;
    Scheme.homa_ecmp;
    Scheme.swift;
    Scheme.timely;
    Scheme.pfc_only;
    Scheme.bfc_credit;
  ]

(* fixtures/sim/schemes.expected pins every preset's smoke run byte for
   byte. *)
let test_all_schemes_complete () =
  let digests =
    List.map
      (fun scheme ->
        let r = smoke scheme () in
        check Alcotest.int
          (Scheme.name scheme ^ " completes everything")
          (Runner.injected r.Exp_common.env)
          (Runner.completed r.Exp_common.env);
        digest_line scheme r)
      presets
  in
  check Alcotest.string "every scheme's output matches its recorded digest"
    (read_fixture (fixture "schemes.expected"))
    (String.concat "" digests)

(* fixtures/sim/control_laws.expected pins each preset, and BFC+CC, on a
   run that drives its rate control: fb_hadoop at 0.9 load with degree-6
   incasts, over switches with a 1 MB buffer. A smoke run leaves the
   baselines' control laws idle (DCQCN and Timely, HPCC and HPCC-PFC have
   equal digests in schemes.expected); here DCQCN's cuts and additive
   increase, Timely's and Swift's delay responses, HPCC's PFC pauses,
   Delay_cc's target and the credit and grant paths all act, so a change
   to any of their constants moves a digest. Completion is not asserted:
   some receiver-driven flows are still open at the drain budget. *)
let test_control_laws_pinned () =
  let run scheme =
    Exp_common.run_std
      {
        (Exp_common.std Exp_common.Smoke scheme) with
        Exp_common.sp_load = 0.9;
        sp_incast = Some { Exp_common.degree = 6; agg_frac_of_paper = 2.0 };
        sp_dur_mult = 1.5;
        sp_params = (fun p -> { p with Runner.buffer_bytes = 1_000_000 });
      }
  in
  let schemes = presets @ [ Scheme.Bfc { Scheme.bfc_default with Scheme.delay_cc = true } ] in
  check Alcotest.string "every control law's output matches its recorded digest"
    (read_fixture (fixture "control_laws.expected"))
    (String.concat "" (List.map (fun s -> digest_line s (run s)) schemes))

let test_bfc_no_drops () =
  let r = smoke Scheme.bfc () in
  check Alcotest.int "BFC drops nothing" 0 (Runner.total_drops r.Exp_common.env)

let test_bfc_no_drops_under_incast () =
  let r = smoke Scheme.bfc ~incast:(Some { Exp_common.degree = 6; agg_frac_of_paper = 0.5 }) () in
  check Alcotest.int "BFC absorbs a small incast without loss" 0
    (Runner.total_drops r.Exp_common.env)

let test_delivered_bytes_match_sizes () =
  let r = smoke Scheme.bfc () in
  List.iter
    (fun f ->
      if Flow.complete f then
        check Alcotest.int "delivered = size" f.Flow.size f.Flow.delivered)
    r.Exp_common.flows

let test_slowdown_at_least_one () =
  let r = smoke Scheme.bfc () in
  List.iter
    (fun f ->
      if Flow.complete f then begin
        let s = Runner.slowdown r.Exp_common.env f in
        Alcotest.(check bool)
          (Printf.sprintf "slowdown >= ~1 (flow %d: %.3f)" f.Flow.id s)
          true (s > 0.95)
      end)
    r.Exp_common.flows

let test_deterministic_same_seed () =
  let fct_list r =
    List.filter_map
      (fun f -> if Flow.complete f then Some (f.Flow.id, Flow.fct f) else None)
      r.Exp_common.flows
  in
  let a = smoke Scheme.bfc ~seed:5 () and b = smoke Scheme.bfc ~seed:5 () in
  check
    Alcotest.(list (pair int int))
    "same seed, same FCTs" (fct_list a) (fct_list b)

let test_different_seed_differs () =
  let a = smoke Scheme.bfc ~seed:5 () and b = smoke Scheme.bfc ~seed:6 () in
  let total r =
    List.fold_left
      (fun acc f -> if Flow.complete f then acc + Flow.fct f else acc)
      0 r.Exp_common.flows
  in
  Alcotest.(check bool) "different seeds give different runs" true (total a <> total b)

let test_bfc_close_to_ideal () =
  let bfc = smoke Scheme.bfc () and ideal = smoke Scheme.Ideal_fq () in
  let p99 r = Metrics.short_p99 r.Exp_common.env r.Exp_common.flows in
  let b = p99 bfc and i = p99 ideal in
  Alcotest.(check bool)
    (Printf.sprintf "BFC short p99 within 2.5x of Ideal-FQ (%.2f vs %.2f)" b i)
    true
    (b < 2.5 *. i +. 0.5)

let test_dctcp_worse_than_bfc_at_tail () =
  let bfc = smoke Scheme.bfc () and dctcp = smoke Scheme.dctcp () in
  let p99 r = Metrics.short_p99 r.Exp_common.env r.Exp_common.flows in
  Alcotest.(check bool)
    (Printf.sprintf "paper's headline direction (bfc %.2f vs dctcp %.2f)" (p99 bfc) (p99 dctcp))
    true
    (p99 bfc < p99 dctcp)

let test_bfc_buffer_below_dctcp () =
  let inc = Some { Exp_common.degree = 6; agg_frac_of_paper = 1.0 } in
  let bfc = smoke Scheme.bfc ~incast:inc () and dctcp = smoke Scheme.dctcp ~incast:inc () in
  Alcotest.(check bool) "BFC keeps buffers smaller under incast" true
    (Exp_common.buffer_p99 bfc <= Exp_common.buffer_p99 dctcp)

let test_pauses_happen_and_drain () =
  let r =
    smoke Scheme.bfc ~load:0.8 ~incast:(Some { Exp_common.degree = 6; agg_frac_of_paper = 1.0 }) ()
  in
  let pauses, resumes =
    Array.fold_left
      (fun (p, rs) dp ->
        let st = Bfc_core.Dataplane.stats dp in
        (p + st.Bfc_core.Dataplane.pauses_sent, rs + st.Bfc_core.Dataplane.resumes_sent))
      (0, 0)
      (Runner.dataplanes r.Exp_common.env)
  in
  Alcotest.(check bool) "backpressure exercised" true (pauses > 0);
  check Alcotest.int "every pause matched by a resume" pauses resumes;
  Array.iter
    (fun dp ->
      check Alcotest.int "pause counters empty at the end" 0
        (Bfc_core.Pause_counter.total (Bfc_core.Dataplane.pause_counters dp)))
    (Runner.dataplanes r.Exp_common.env)

let test_gbn_recovers_from_drops () =
  (* DCTCP with a pathologically small buffer: drops happen, flows still
     complete thanks to NACK/RTO recovery *)
  let r =
    Exp_common.run_std
      {
        (Exp_common.std Exp_common.Smoke Scheme.dctcp) with
        Exp_common.sp_dist = Dist.google;
        sp_params =
          (fun p -> { p with Runner.buffer_bytes = 150_000; pfc_frac = 2.0 (* disable PFC *) });
      }
  in
  Alcotest.(check bool) "drops occurred" true (Runner.total_drops r.Exp_common.env > 0);
  check Alcotest.int "all flows still complete"
    (Runner.injected r.Exp_common.env)
    (Runner.completed r.Exp_common.env)

let test_pfc_prevents_drops () =
  (* same tiny buffer with PFC enabled: pauses instead of losses *)
  let r =
    Exp_common.run_std
      {
        (Exp_common.std Exp_common.Smoke Scheme.dctcp) with
        Exp_common.sp_dist = Dist.google;
        sp_params = (fun p -> { p with Runner.buffer_bytes = 600_000 });
      }
  in
  Alcotest.(check bool) "PFC kicked in" true (Runner.pfc_pause_fraction r.Exp_common.env > 0.0);
  check Alcotest.int "no drops with PFC" 0 (Runner.total_drops r.Exp_common.env)

let test_hpcc_pfc_perfect_rtx () =
  let r =
    Exp_common.run_std
      {
        (Exp_common.std Exp_common.Smoke Scheme.hpcc_pfc) with
        Exp_common.sp_dist = Dist.google;
        sp_incast = Some { Exp_common.degree = 6; agg_frac_of_paper = 1.0 };
        sp_params = (fun p -> { p with Runner.buffer_bytes = 400_000 });
      }
  in
  check Alcotest.int "completes despite drops"
    (Runner.injected r.Exp_common.env)
    (Runner.completed r.Exp_common.env)

let test_metrics_buckets () =
  let r = smoke Scheme.bfc () in
  let table = Metrics.fct_table r.Exp_common.env r.Exp_common.flows in
  check Alcotest.int "all buckets present" (List.length Metrics.size_buckets) (List.length table);
  let total = List.fold_left (fun acc s -> acc + s.Metrics.count) 0 table in
  let non_incast = List.length (List.filter (fun f -> not f.Flow.is_incast) r.Exp_common.flows) in
  Alcotest.(check bool) "bucket counts cover completed flows" true (total <= non_incast);
  List.iter
    (fun s ->
      if s.Metrics.count > 0 then begin
        Alcotest.(check bool) "p99 >= p50" true (s.Metrics.p99 >= s.Metrics.p50);
        Alcotest.(check bool) "avg positive" true (s.Metrics.avg > 0.0)
      end)
    table

let test_utilization_probe () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let env = Runner.setup ~topo:st.Topology.s ~scheme:Scheme.bfc ~params:Runner.default_params in
  let ids = ref 0 in
  let flows =
    Traffic.long_lived ~pairs:[| (st.Topology.st_senders.(0), st.Topology.st_receiver) |] ~ids ()
  in
  let probe = Metrics.utilization_probe env ~gid:st.Topology.st_bottleneck_gid in
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 1.0);
  let u = Metrics.utilization probe in
  Alcotest.(check bool)
    (Printf.sprintf "single line-rate flow saturates the link (%.2f)" u)
    true (u > 0.9)

let test_watch_buffers_samples () =
  let r = smoke Scheme.bfc () in
  Alcotest.(check bool) "buffer samples collected" true
    (Bfc_util.Stats.Sample.count r.Exp_common.buffers > 10)

let test_runner_host_errors () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let env = Runner.setup ~topo:st.Topology.s ~scheme:Scheme.bfc ~params:Runner.default_params in
  Alcotest.(check bool) "asking for a switch as host raises" true
    (try
       ignore (Runner.host env st.Topology.st_switch);
       false
     with Invalid_argument _ -> true)

let test_classes_partition () =
  (* multi-class run completes and classes see traffic *)
  let r =
    Exp_common.run_std
      {
        (Exp_common.std Exp_common.Smoke
           (Scheme.Bfc { Scheme.bfc_default with Scheme.classes = 4 }))
        with
        Exp_common.sp_classes = 4;
        sp_dist = Dist.google;
      }
  in
  check Alcotest.int "completes" (Runner.injected r.Exp_common.env)
    (Runner.completed r.Exp_common.env);
  for c = 0 to 3 do
    let n = List.length (List.filter (fun f -> f.Flow.prio_class = c) r.Exp_common.flows) in
    Alcotest.(check bool) (Printf.sprintf "class %d nonempty" c) true (n > 0)
  done

let test_deadlock_filter_run () =
  (* running with the App B elision filter must not break anything on Clos *)
  let r =
    Exp_common.run_std
      {
        (Exp_common.std Exp_common.Smoke Scheme.bfc) with
        Exp_common.sp_dist = Dist.google;
        sp_params = (fun p -> { p with Runner.deadlock_filter = true });
      }
  in
  check Alcotest.int "completes with filter" (Runner.injected r.Exp_common.env)
    (Runner.completed r.Exp_common.env)

let test_cross_dc_setup () =
  let sim = Sim.create () in
  let x =
    Topology.cross_dc sim ~spines:2 ~tors:2 ~hosts_per_tor:2 ~gbps:100.0 ~prop:(Time.us 1.0)
      ~wan_gbps:200.0 ~wan_prop:(Time.us 50.0)
  in
  let env = Runner.setup ~topo:x.Topology.x ~scheme:Scheme.bfc ~params:Runner.default_params in
  let ids = ref 0 in
  let h1 = x.Topology.dc1.Topology.xc_hosts and h2 = x.Topology.dc2.Topology.xc_hosts in
  let flows =
    Traffic.long_lived ~pairs:[| (h1.(0), h2.(0)) |] ~size:2_000_000 ~ids ()
    @ [ Flow.make ~id:!ids ~src:h1.(1) ~dst:h1.(2) ~size:10_000 ~arrival:(Time.us 10.0) () ]
  in
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 3.0);
  Runner.drain env ~budget:(Time.ms 10.0);
  let intra = List.nth flows 1 in
  Alcotest.(check bool) "intra-DC flow completes quickly despite WAN flow" true
    (Flow.complete intra);
  check Alcotest.int "no drops" 0 (Runner.total_drops env)

let suite =
  [
    ("all schemes complete", `Slow, test_all_schemes_complete);
    ("control laws pinned", `Slow, test_control_laws_pinned);
    ("bfc no drops", `Quick, test_bfc_no_drops);
    ("bfc no drops under incast", `Quick, test_bfc_no_drops_under_incast);
    ("delivered bytes match", `Quick, test_delivered_bytes_match_sizes);
    ("slowdown >= 1", `Quick, test_slowdown_at_least_one);
    ("deterministic", `Quick, test_deterministic_same_seed);
    ("seed sensitivity", `Quick, test_different_seed_differs);
    ("bfc close to ideal", `Quick, test_bfc_close_to_ideal);
    ("bfc beats dctcp tail", `Quick, test_dctcp_worse_than_bfc_at_tail);
    ("bfc buffer below dctcp", `Quick, test_bfc_buffer_below_dctcp);
    ("pauses happen and drain", `Quick, test_pauses_happen_and_drain);
    ("gbn recovers from drops", `Quick, test_gbn_recovers_from_drops);
    ("pfc prevents drops", `Quick, test_pfc_prevents_drops);
    ("hpcc-pfc perfect rtx", `Quick, test_hpcc_pfc_perfect_rtx);
    ("metrics buckets", `Quick, test_metrics_buckets);
    ("utilization probe", `Quick, test_utilization_probe);
    ("watch buffers", `Quick, test_watch_buffers_samples);
    ("runner host errors", `Quick, test_runner_host_errors);
    ("classes partition", `Quick, test_classes_partition);
    ("deadlock filter run", `Quick, test_deadlock_filter_run);
    ("cross-dc setup", `Quick, test_cross_dc_setup);
  ]
