(* Tofino2 testbed experiments (§6.1), reproduced on the simulated
   equivalent of the loopback topology: Fig. 7 (queue length and
   under-utilization vs pause threshold) and Fig. 8 (congestion spreading
   under the three queue-assignment strategies). *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Topology = Bfc_net.Topology
module Flow = Bfc_net.Flow
module Switch = Bfc_switch.Switch
module Traffic = Bfc_workload.Traffic
module Sample = Bfc_util.Stats.Sample
open Exp_common

(* ------------------------------------------------------------------ *)
(* Fig. 7: two flows at a 100G link; sweep the pause threshold.         *)

let fig7 profile =
  let duration =
    match profile with Smoke -> Time.us 300.0 | Quick -> Time.ms 2.0 | Paper -> Time.ms 10.0
  in
  (* thresholds in us of drain time at 100G (12.5 KB/us) *)
  let ths_us = [ 0.25; 0.5; 1.0; 2.0; 4.0 ] in
  let rows =
    Pool.run
      (List.map
         (fun th_us () ->
        let fixed_th = int_of_float (th_us *. 12_500.0) in
        let scheme =
          Scheme.Bfc { Scheme.bfc_default with Scheme.queues = 16; fixed_th = Some fixed_th }
        in
        let tb, env = prepare (Testbed { g1 = 1; g2 = 1; g3 = 1 }) scheme Runner.default_params in
        let ids = ref 0 in
        let flows =
          Traffic.long_lived
            ~pairs:
              [|
                (tb.Topology.group2.(0), tb.Topology.recv2);
                (tb.Topology.group3.(0), tb.Topology.recv2);
              |]
            ~ids ()
        in
        let egress =
          Topology.egress_towards tb.Topology.tb ~node:tb.Topology.sw2 ~peer:tb.Topology.recv2
        in
        let sw2 = Runner.switch env tb.Topology.sw2 in
        let qlen = Sample.create () in
        ignore
          (Sim.every (Runner.sim env) ~period:(Time.ns 500) (fun () ->
               Sample.add qlen (float_of_int (Switch.egress_bytes sw2 ~egress))));
        let probe =
          Metrics.utilization_probe env
            ~gid:(Bfc_net.Port.gid (Topology.port tb.Topology.tb tb.Topology.sw2 egress))
        in
        execute env ~until:duration (Flows flows);
        let util = Metrics.utilization probe in
        [
          cell th_us;
          string_of_int fixed_th;
          cell (Sample.mean qlen /. 1000.0);
          cell (Sample.percentile qlen 99.0 /. 1000.0);
          cell ((1.0 -. util) *. 100.0);
        ])
         ths_us)
  in
  [
    {
      title = "Fig 7: queue length & under-utilization vs pause threshold (2 flows, 100G)";
      header = [ "Th(us)"; "Th(B)"; "avg qlen(KB)"; "p99 qlen(KB)"; "under-util(%)" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 8: congestion spreading vs queue-assignment strategy.           *)

let fig8 profile =
  let n_runs = match profile with Smoke -> 2 | Quick -> 4 | Paper -> 8 in
  let g2_counts = match profile with Smoke -> [ 8 ] | _ -> [ 4; 8; 12; 16; 20 ] in
  let strategies =
    [
      ("single", Bfc_core.Dqa.Single);
      ("stochastic", Bfc_core.Dqa.Stochastic);
      ("dynamic", Bfc_core.Dqa.Dynamic);
    ]
  in
  (* every (strategy, g2, run) triple is one independent sweep point
     returning its group-1 FCTs; runs merge back per (strategy, g2) *)
  let one_run assignment g2 run () =
    let scheme = Scheme.Bfc { Scheme.bfc_default with Scheme.queues = 16; assignment } in
    let params = { Runner.default_params with seed = run * 7 } in
    let tb, env = prepare (Testbed { g1 = 2; g2; g3 = 8 }) scheme params in
    let ids = ref (run * 10_000) in
    let to_recv recv group =
      Traffic.long_lived ~pairs:(Array.map (fun h -> (h, recv)) group) ~size:1_500_000 ~ids ()
    in
    let group1 = to_recv tb.Topology.recv1 tb.Topology.group1 in
    let group2 = to_recv tb.Topology.recv2 tb.Topology.group2 in
    let group3 = to_recv tb.Topology.recv2 tb.Topology.group3 in
    execute env ~until:(Time.ms 10.0) ~budget:(Time.ms 40.0) (Flows (group1 @ group2 @ group3));
    List.filter_map
      (fun f -> if Flow.complete f then Some (Time.to_us (Flow.fct f)) else None)
      group1
  in
  let combos =
    List.concat_map
      (fun (sname, assignment) ->
        List.map (fun g2 -> (sname, assignment, g2)) g2_counts)
      strategies
  in
  let points =
    List.concat_map
      (fun (_, assignment, g2) -> List.init n_runs (fun i -> one_run assignment g2 (i + 1)))
      combos
  in
  let per_run = Array.of_list (Pool.run points) in
  let rows =
    List.mapi
      (fun ci (sname, _, g2) ->
        let fcts = Sample.create () in
        for i = 0 to n_runs - 1 do
          List.iter (Sample.add fcts) per_run.((ci * n_runs) + i)
        done;
        [ sname; string_of_int g2; cell (Sample.mean fcts); cell (Sample.stddev fcts) ])
      combos
  in
  [
    {
      title =
        "Fig 8: group-1 victim FCT under congestion spreading (1.5MB flows; 16 queues/port)";
      header = [ "assignment"; "#group2 flows"; "avg FCT(us)"; "stddev(us)" ];
      rows;
    };
  ]
