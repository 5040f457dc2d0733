(* Appendix experiments: Fig. 15/16 (limits of BFC + end-to-end CC),
   Fig. 20 (traffic classes), Fig. 21 (parameter sensitivity), Fig. 22
   (spatial locality), Fig. 23 (slow start), Fig. 24 (incast labelling),
   Fig. 25 (incremental deployment), Fig. 26 (cross-DC), Fig. 27
   (stochastic vs dynamic assignment), Fig. 28 (flow-table size) and the
   App. B deadlock analysis. *)

module Time = Bfc_engine.Time
module Topology = Bfc_net.Topology
module Flow = Bfc_net.Flow
module Packet = Bfc_net.Packet
module Dist = Bfc_workload.Dist
module Traffic = Bfc_workload.Traffic
module Arrivals = Bfc_workload.Arrivals
module Sample = Bfc_util.Stats.Sample
module Dataplane = Bfc_core.Dataplane
open Exp_common

(* ------------------------------------------------------------------ *)
(* Fig. 15: mice FCT vs number of long-running elephants.               *)

let fig15 profile =
  let elephant_counts =
    match profile with Smoke -> [ 16 ] | Quick -> [ 8; 32; 64; 128 ] | Paper -> [ 8; 16; 32; 64; 128; 256 ]
  in
  let schemes =
    match profile with
    | Smoke -> [ Scheme.bfc ]
    | _ ->
      [
        Scheme.bfc;
        Scheme.bfc_q 128;
        Scheme.Bfc { Scheme.bfc_default with Scheme.delay_cc = true };
        Scheme.Ideal_fq;
      ]
  in
  let combos =
    List.concat_map (fun s -> List.map (fun n -> (s, n)) elephant_counts) schemes
  in
  let rows =
    Pool.run
      (List.map
         (fun (scheme, n_eleph) () ->
          let cl, env = prepare (Clos profile) scheme Runner.default_params in
          let hosts = cl.Topology.cl_hosts in
          let recv_a = hosts.(0) and recv_b = hosts.(1) in
          let ids = ref 0 in
          (* elephants to A from round-robin senders outside A's rack *)
          let senders =
            Array.of_list
              (List.filter
                 (fun h -> cl.Topology.rack_of h <> cl.Topology.rack_of recv_a)
                 (Array.to_list hosts))
          in
          let eleph_pairs =
            Array.init n_eleph (fun i -> (senders.(i mod Array.length senders), recv_a))
          in
          let elephants = Traffic.long_lived ~pairs:eleph_pairs ~ids () in
          let dur =
            match profile with Smoke -> Time.us 400.0 | Quick -> Time.ms 2.0 | Paper -> Time.ms 10.0
          in
          let mice dst seed =
            Traffic.to_one ~hosts:senders ~dst ~gbps:100.0 ~dist:(Dist.fixed 1_000)
              ~arrivals:Arrivals.Poisson ~load:0.03 ~duration:dur ~seed ~ids
          in
          let direct = mice recv_a 21 and indirect = mice recv_b 22 in
          execute env ~until:dur ~budget:(2 * dur)
            (Flows (Traffic.merge [ elephants; direct; indirect ]));
          [
            Scheme.name scheme;
            string_of_int n_eleph;
            cell (Metrics.median_slowdown env direct);
            cell (Metrics.median_slowdown env indirect);
          ])
         combos)
  in
  [
    {
      title = "Fig 15: median mice slowdown vs number of elephants to one receiver";
      header = [ "scheme"; "elephants"; "direct mice p50"; "indirect mice p50" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 16: BFC vs BFC+CC on the Fig. 11 setup.                         *)

let fig16 profile =
  let cc = Scheme.Bfc { Scheme.bfc_default with Scheme.delay_cc = true } in
  let combos =
    List.concat_map
      (fun (tag, incast) -> List.map (fun s -> (tag, incast, s)) [ Scheme.bfc; cc ])
      [ (" +incast", Some default_incast); (" no-incast", None) ]
  in
  let results =
    Pool.run
      (List.map
         (fun (tag, incast, scheme) () ->
           let s = { (std profile scheme) with sp_incast = incast } in
           let r = run_std s in
           let name = Scheme.name scheme ^ tag in
           ( List.map (fun row -> name :: row) (fct_rows r),
             [ name; cell (buffer_p99 r /. 1e6) ] ))
         combos)
  in
  [
    {
      title = "Fig 16: BFC vs BFC+CC (App A.1), FB workload — p99 slowdown";
      header = [ "scheme"; "bucket"; "n"; "avg"; "p50"; "p95"; "p99" ];
      rows = List.concat_map fst results;
    };
    {
      title = "Fig 16b: buffer";
      header = [ "scheme"; "p99 buffer(MB)" ];
      rows = List.map snd results;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 20: four traffic classes.                                       *)

let fig20 profile =
  let schemes =
    match profile with
    | Smoke -> [ Scheme.bfc ]
    | _ -> [ Scheme.bfc; Scheme.bfc_q 128; Scheme.hpcc; Scheme.dctcp ]
  in
  let classes = 4 in
  let rows =
    List.concat
      (Pool.run
         (List.map
            (fun scheme () ->
              let scheme =
                match scheme with
                | Scheme.Bfc o -> Scheme.Bfc { o with Scheme.classes }
                | s -> s
              in
              let s = { (std profile scheme) with sp_classes = classes } in
              let r = run_std s in
              List.init classes (fun c ->
                  let sub = List.filter (fun f -> f.Flow.prio_class = c) r.flows in
                  let short = Metrics.short_p99 r.env ~since:r.measure_from sub in
                  let all = Metrics.fct_overall r.env sub in
                  [
                    Scheme.name scheme;
                    string_of_int c;
                    string_of_int all.Metrics.count;
                    cell short;
                    cell all.Metrics.avg;
                    cell all.Metrics.p99;
                  ]))
            schemes))
  in
  [
    {
      title = "Fig 20: 4 priority classes (FB 60%, 15% each) — per-class slowdown";
      header = [ "scheme"; "class"; "n"; "short p99"; "overall avg"; "overall p99" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 21: parameter sensitivity of the baselines.                     *)

let fig21 profile =
  let summarize name r =
    [
      name;
      cell (Metrics.short_p99 r.env ~since:r.measure_from r.flows);
      cell (Metrics.long_avg r.env ~since:r.measure_from r.flows);
      cell (Metrics.fct_overall r.env r.flows).Metrics.p99;
    ]
  in
  (* one flat point list across the three parameter families *)
  let hpcc_pts =
    List.map
      (fun eta () ->
        let s = std profile (Scheme.Hpcc { eta }) in
        summarize (Printf.sprintf "HPCC eta=%.2f" eta) (run_std s))
      (match profile with Smoke -> [ 0.95 ] | _ -> [ 0.90; 0.95; 0.98 ])
  in
  let dctcp_pts =
    List.map
      (fun (kmin, kmax) () ->
        let s =
          {
            (std profile Scheme.dctcp) with
            sp_params = (fun p -> { p with Runner.ecn_kmin = kmin; ecn_kmax = kmax });
          }
        in
        summarize (Printf.sprintf "DCTCP K=%dK/%dK" (kmin / 1000) (kmax / 1000)) (run_std s))
      (match profile with
      | Smoke -> [ (100_000, 400_000) ]
      | _ -> [ (25_000, 100_000); (100_000, 400_000); (400_000, 1_600_000) ])
  in
  let xpass_pts =
    List.map
      (fun (target_loss, w_init) () ->
        let s = std profile (Scheme.Expresspass { target_loss; w_init }) in
        summarize (Printf.sprintf "xpass loss=%.2f w0=%.3f" target_loss w_init) (run_std s))
      (match profile with
      | Smoke -> [ (0.1, 0.0625) ]
      | _ -> [ (0.02, 0.0625); (0.1, 0.0625); (0.3, 0.0625); (0.1, 0.5) ])
  in
  let rows = Pool.run (hpcc_pts @ dctcp_pts @ xpass_pts) in
  [
    {
      title = "Fig 21: parameter sensitivity (FB 60%, no incast)";
      header = [ "config"; "short p99"; "long avg"; "overall p99" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 22: spatial locality.                                           *)

let fig22 profile =
  let schemes =
    match profile with
    | Smoke -> [ Scheme.bfc ]
    | _ -> [ Scheme.bfc; Scheme.hpcc; Scheme.dctcp; Scheme.Ideal_fq ]
  in
  let combos =
    List.concat_map
      (fun (tag, incast) -> List.map (fun s -> (tag, incast, s)) schemes)
      (match profile with
      | Smoke -> [ (" no-incast", None) ]
      | _ -> [ (" +incast", Some default_incast); (" no-incast", None) ])
  in
  let rows =
    List.concat
      (Pool.run
         (List.map
            (fun (tag, incast, scheme) () ->
              let s =
                { (std profile scheme) with sp_incast = incast; sp_locality = Some 0.5 }
              in
              let r = run_std s in
              List.map (fun row -> (Scheme.name scheme ^ tag) :: row) (fct_rows r))
            combos))
  in
  [
    {
      title = "Fig 22: rack-local traffic matrix (equalized link load) — FCT slowdown";
      header = [ "scheme"; "bucket"; "n"; "avg"; "p50"; "p95"; "p99" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 23: slow start vs line-rate start.                               *)

let fig23 profile =
  let combos =
    List.concat_map
      (fun (tag, incast) ->
        List.map (fun v -> (tag, incast, v)) [ ("DCTCP", false); ("DCTCP+SS", true) ])
      (match profile with
      | Smoke -> [ (" no-incast", None) ]
      | _ -> [ (" +incast", Some default_incast); (" no-incast", None) ])
  in
  let rows =
    List.concat
      (Pool.run
         (List.map
            (fun (tag, incast, (name, slow_start)) () ->
              let s =
                { (std profile (Scheme.Dctcp { slow_start })) with sp_incast = incast }
              in
              let r = run_std s in
              List.map (fun row -> (name ^ tag) :: row) (fct_rows r))
            combos))
  in
  [
    {
      title = "Fig 23: DCTCP line-rate start vs slow start (FB) — slowdown (p50 in col p50)";
      header = [ "scheme"; "bucket"; "n"; "avg"; "p50"; "p95"; "p99" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 24: incast labelling.                                           *)

let fig24 profile =
  let degrees =
    match profile with Smoke -> [ 20 ] | Quick -> [ 10; 100; 400; 800 ] | Paper -> [ 10; 100; 500; 2000 ]
  in
  let combos =
    List.concat_map
      (fun (name, scheme) -> List.map (fun d -> (name, scheme, d)) degrees)
      [
        ("BFC + Flow FQ", Scheme.bfc);
        ("BFC + IncastLabel", Scheme.Bfc { Scheme.bfc_default with Scheme.incast_label = true });
      ]
  in
  let rows =
    Pool.run
      (List.map
         (fun (name, scheme, degree) () ->
           let s =
             { (std profile scheme) with sp_incast = Some { default_incast with degree } }
           in
           let r = run_std s in
           let inc_stats =
             let sample = Sample.create () in
             List.iter
               (fun f ->
                 if Flow.complete f && f.Flow.is_incast then
                   Sample.add sample (Runner.slowdown r.env f))
               r.flows;
             if Sample.is_empty sample then nan else Sample.percentile sample 99.0
           in
           [
             name;
             string_of_int degree;
             cell (Metrics.long_avg r.env ~since:r.measure_from r.flows);
             cell (Metrics.short_p99 r.env ~since:r.measure_from r.flows);
             cell inc_stats;
           ])
         combos)
  in
  [
    {
      title = "Fig 24: incast labelling (App A.7) vs incast degree (FB, 55%+5%)";
      header = [ "scheme"; "degree"; "long avg"; "short p99"; "incast p99" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 25: incremental deployment.                                     *)

let fig25 profile =
  let schemes =
    [
      ("BFC", Scheme.bfc);
      ( "BFC - NIC",
        Scheme.Bfc
          {
            Scheme.bfc_default with
            Scheme.nic_respect_pause = false;
            window_cap = Some 1.0;
          } );
      ("BFC + sampling", Scheme.Bfc { Scheme.bfc_default with Scheme.sampling = 0.5 });
    ]
  in
  let results =
    Pool.run
      (List.map
         (fun (name, scheme) () ->
           let s = { (std profile scheme) with sp_incast = Some default_incast } in
           let r = run_std s in
           ( List.map (fun row -> name :: row) (fct_rows r),
             [ name; cell (buffer_p99 r /. 1e6); string_of_int (Runner.total_drops r.env) ]
           ))
         schemes)
  in
  [
    {
      title = "Fig 25: incremental deployment (FB + incast) — FCT slowdown";
      header = [ "scheme"; "bucket"; "n"; "avg"; "p50"; "p95"; "p99" ];
      rows = List.concat_map fst results;
    };
    {
      title = "Fig 25b: buffer & drops";
      header = [ "scheme"; "p99 buffer(MB)"; "drops" ];
      rows = List.map snd results;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 26: cross data center.                                          *)

let fig26 profile =
  let schemes =
    match profile with
    | Smoke -> [ Scheme.bfc ]
    | _ -> [ Scheme.bfc; Scheme.hpcc; Scheme.dcqcn ]
  in
  let rows =
    Pool.run
      (List.map
         (fun scheme () ->
        (* the WAN must be a small fraction of the DC core (the paper: 200G
           vs a 3.2T core) or the cores, not the schemes, are the limit *)
        let spines, tors, hosts_per_tor =
          match profile with Smoke -> (2, 2, 2) | Quick -> (4, 4, 8) | Paper -> (4, 8, 8)
        in
        let x, env = prepare (Cross_dc { spines; tors; hosts_per_tor }) scheme Runner.default_params in
        let dur =
          match profile with Smoke -> Time.ms 1.5 | Quick -> Time.ms 5.0 | Paper -> Time.ms 25.0
        in
        let ids = ref 0 in
        (* "ample parallelism" (App. A.9): enough flows that their combined
           intra-DC fair shares exceed the WAN capacity *)
        let n_inter = match profile with Smoke -> 4 | Quick -> 24 | Paper -> 24 in
        let h1 = x.Topology.dc1.Topology.xc_hosts and h2 = x.Topology.dc2.Topology.xc_hosts in
        let inter =
          Traffic.long_lived
            ~pairs:
              (Array.init (2 * n_inter) (fun i ->
                   if i < n_inter then (h1.(i mod Array.length h1), h2.(i mod Array.length h2))
                   else (h2.(i mod Array.length h2), h1.(i mod Array.length h1))))
            ~ids ()
        in
        let intra hosts seed =
          Traffic.generate
            {
              Traffic.hosts;
              dist = Dist.fb_hadoop;
              arrivals = Arrivals.lognormal_default;
              load = 0.6;
              ref_capacity_gbps = float_of_int (spines * tors) *. 100.0;
              core_fraction =
                1.0
                -. float_of_int (hosts_per_tor - 1)
                   /. float_of_int (Array.length hosts - 1);
              matrix = Traffic.Uniform;
              duration = dur;
              seed;
              prio_classes = 1;
            }
            ~ids
        in
        let intra1 = intra h1 31 and intra2 = intra h2 32 in
        let probe = Metrics.utilization_probe env ~gid:x.Topology.interconnect_gid in
        execute env ~until:dur (Flows (Traffic.merge [ inter; intra1; intra2 ]));
        let util = Metrics.utilization probe in
        let intra_flows = intra1 @ intra2 in
        [
          Scheme.name scheme;
          cell (Metrics.short_p99 env ~since:(dur / 5) intra_flows);
          cell (Metrics.fct_overall env intra_flows).Metrics.p99;
          cell (util *. 100.0);
        ])
         schemes)
  in
  [
    {
      title = "Fig 26: cross-DC (200G WAN, 400us base RTT) — intra-DC tails & WAN utilization";
      header = [ "scheme"; "intra short p99"; "intra overall p99"; "interconnect util (%)" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 27: dynamic vs stochastic queue assignment.                     *)

let fig27 profile =
  let results =
    Pool.run
      (List.map
         (fun (name, scheme) () ->
           let s = { (std profile scheme) with sp_incast = Some default_incast } in
           let r = run_std s in
           let collisions, randoms, assigns =
             Array.fold_left
               (fun (c, ra, a) dp ->
                 let st = Dataplane.stats dp in
                 ( c + st.Dataplane.queue_collisions,
                   ra + st.Dataplane.random_assignments,
                   a + st.Dataplane.assignments ))
               (0, 0, 0) (Runner.dataplanes r.env)
           in
           ( List.map (fun row -> name :: row) (fct_rows r),
             [
               name;
               string_of_int assigns;
               string_of_int collisions;
               string_of_int randoms;
             ] ))
         [
           ("BFC + Dynamic", Scheme.bfc);
           ( "BFC + Stochastic",
             Scheme.Bfc { Scheme.bfc_default with Scheme.assignment = Bfc_core.Dqa.Stochastic }
           );
         ])
  in
  [
    {
      title = "Fig 27: dynamic vs stochastic queue assignment (FB + incast) — slowdown";
      header = [ "scheme"; "bucket"; "n"; "avg"; "p50"; "p95"; "p99" ];
      rows = List.concat_map fst results;
    };
    {
      title = "Fig 27b: queue collisions";
      header = [ "scheme"; "assignments"; "collisions"; "forced-random" ];
      rows = List.map snd results;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 28: flow-table size.                                            *)

let fig28 profile =
  let mults = match profile with Smoke -> [ 100 ] | _ -> [ 10; 25; 50; 100; 400 ] in
  let rows =
    Pool.run
      (List.map
         (fun table_mult () ->
           let scheme = Scheme.Bfc { Scheme.bfc_default with Scheme.table_mult } in
           let s = { (std profile scheme) with sp_incast = Some default_incast } in
           let r = run_std s in
           [
             Printf.sprintf "%dx" table_mult;
             cell (Metrics.short_p99 r.env ~since:r.measure_from r.flows);
             cell (Metrics.fct_overall r.env r.flows).Metrics.p99;
             cell (Metrics.long_avg r.env ~since:r.measure_from r.flows);
           ])
         mults)
  in
  [
    {
      title = "Fig 28: flow-table size (slots per port / queues) — FB + incast";
      header = [ "table size"; "short p99"; "overall p99"; "long avg" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Sec 5 extension: credit-based lossless BFC under extreme incast.     *)

let lossless profile =
  let degree = match profile with Smoke -> 50 | Quick -> 800 | Paper -> 2000 in
  let rows =
    Pool.run
      (List.map
         (fun (name, scheme) () ->
        let s =
          {
            (std profile scheme) with
            sp_dist = Dist.fb_hadoop;
            sp_incast = Some { default_incast with degree };
          }
        in
        let r = run_std s in
        let sent =
          Array.fold_left (fun a sw -> a + Bfc_switch.Switch.tx_packets sw) 0
            (Runner.switches r.env)
        in
        let drops = Runner.total_drops r.env in
        let drop_pct = 100.0 *. float_of_int drops /. float_of_int (max 1 sent) in
        [
          name;
          string_of_int degree;
          string_of_int drops;
          cell drop_pct;
          cell (Sample.max r.buffers /. 1e6);
          cell (Metrics.short_p99 r.env ~since:r.measure_from r.flows);
          Printf.sprintf "%d/%d" (Runner.completed r.env) (Runner.injected r.env);
        ])
         [
           ("BFC (12MB buffer)", Scheme.bfc);
           ("BFC-credit (lossless)", Scheme.bfc_credit);
         ])
  in
  [
    {
      title =
        "Sec 5: losslessness under extreme incast — pause/resume BFC vs the credit variant";
      header =
        [ "scheme"; "incast degree"; "data drops"; "drop %"; "peak buffer(MB)"; "short p99"; "completed" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Sec 3.3 "Idempotent state": losing pause/resume packets on the wire.
   Without the periodic bitmap a lost Resume can strand a queue paused
   forever; with it, state converges. *)

let idempotent profile =
  let run name ~loss ~bitmap =
    let scheme =
      Scheme.Bfc
        {
          Scheme.bfc_default with
          Scheme.bitmap_period = (if bitmap then Some (Time.us 20.0) else None);
        }
    in
    (* Pause and Resume frames are lost on the wire with probability [loss]. *)
    let wire_loss env =
      let rng = Bfc_util.Rng.create 424_242 in
      let topo = Runner.topo env in
      if loss > 0.0 then
        for g = 0 to Topology.total_ports topo - 1 do
          Bfc_net.Port.set_fault (Topology.port_by_gid topo g) (fun pkt ->
              match Packet.kind pkt with
              | Bfc_net.Packet.Pause | Bfc_net.Packet.Resume -> Bfc_util.Rng.float rng < loss
              | _ -> false)
        done
    in
    let r =
      run_std
        {
          (std profile scheme) with
          sp_dist = Dist.google;
          sp_load = 0.7;
          sp_incast = Some { default_incast with degree = 20 };
          sp_params = (fun p -> { p with Runner.seed = 3 });
          sp_obs = wire_loss;
        }
    in
    let topo = Runner.topo r.env in
    let lost = ref 0 in
    for g = 0 to Topology.total_ports topo - 1 do
      lost := !lost + Bfc_net.Port.faults_injected (Topology.port_by_gid topo g)
    done;
    [
      name;
      cell (loss *. 100.0);
      string_of_int !lost;
      Printf.sprintf "%d/%d" (Runner.completed r.env) (Runner.injected r.env);
      cell (Metrics.short_p99 r.env ~since:r.measure_from r.flows);
    ]
  in
  let rows =
    Pool.run
      [
        (fun () -> run "no loss" ~loss:0.0 ~bitmap:false);
        (fun () ->
          run "20% ctrl loss, no refresh" ~loss:0.2 ~bitmap:false);
        (fun () ->
          run "20% ctrl loss + bitmap refresh" ~loss:0.2 ~bitmap:true);
      ]
  in
  [
    {
      title =
        "Sec 3.3 idempotent state: pause/resume loss on the wire, with/without bitmap refresh";
      header = [ "config"; "ctrl loss %"; "ctrl pkts lost"; "completed"; "short p99" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* App. B live: actually deadlock a ring, then prevent it.              *)

let deadlock_sim _profile =
  let run ~filter =
    (* 2 queues per port = one shared data queue: the PFC-like regime in
       which cyclic buffer dependencies produce real head-of-line deadlock *)
    let scheme = Scheme.Bfc { Scheme.bfc_default with Scheme.queues = 2 } in
    let ring, env =
      prepare Ring scheme { Runner.default_params with deadlock_filter = filter }
    in
    execute env ~until:(Time.ms 4.0) ~budget:(Time.ms 40.0)
      (Flows (ring_flows ring ~size:5_000_000));
    let stuck =
      Array.fold_left
        (fun a dp -> a + Bfc_core.Pause_counter.total (Bfc_core.Dataplane.pause_counters dp))
        0 (Runner.dataplanes env)
    in
    [
      (if filter then "with App B elision table" else "no deadlock prevention");
      Printf.sprintf "%d/%d" (Runner.completed env) (Runner.injected env);
      string_of_int stuck;
      string_of_int (Runner.total_drops env);
    ]
  in
  [
    {
      title =
        "App B live: cyclic flows on a 5-switch ring (5MB each) — deadlock and its prevention";
      header = [ "config"; "completed"; "stranded pause counts"; "drops" ];
      rows =
        Pool.run
          [
            (fun () -> run ~filter:false);
            (fun () -> run ~filter:true);
          ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* App. B: deadlock analysis.                                           *)

let deadlock profile =
  let row name topo =
    let g = Bfc_core.Deadlock.build topo in
    ( g,
      [
        name;
        string_of_int (Bfc_core.Deadlock.n_edges g);
        string_of_bool (Bfc_core.Deadlock.has_cycle g);
        string_of_int (List.length (Bfc_core.Deadlock.dangerous_edges g));
      ] )
  in
  let _, clos_row = row "clos (up-down routing)" (snd (topology (Clos profile))) in
  (* a 5-switch ring: shortest-path routing creates a cyclic buffer
     dependency; the elision table must break it *)
  let gr, ring_row = row "5-switch ring" (snd (topology Ring)) in
  let witness =
    match Bfc_core.Deadlock.find_cycle gr with
    | Some c -> Printf.sprintf "cycle through %d ports" (List.length c)
    | None -> "acyclic"
  in
  [
    {
      title = "App B: backpressure-graph analysis (cycle => potential deadlock)";
      header = [ "topology"; "bp edges"; "has cycle"; "edges elided" ];
      rows = [ clos_row; ring_row; [ "ring witness"; witness; ""; "" ] ];
    };
  ]
