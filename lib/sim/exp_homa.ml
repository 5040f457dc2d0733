(* Homa comparison (App. A.2): Fig. 17-19 and Table 2. *)

module Topology = Bfc_net.Topology
module Packet = Bfc_net.Packet
module Dist = Bfc_workload.Dist
module Traffic = Bfc_workload.Traffic
module Arrivals = Bfc_workload.Arrivals
module Sample = Bfc_util.Stats.Sample
open Exp_common

let srf_schemes profile =
  match profile with
  | Smoke -> [ Scheme.homa; Scheme.bfc_srf ]
  | _ -> [ Scheme.homa; Scheme.homa_ecmp; Scheme.bfc_srf; Scheme.Ideal_srf ]

let dists = [ Dist.google; Dist.fb_hadoop ]

(* dist x scheme sweeps regroup their flat result list back into one table
   per dist; comparing by name keeps the grouping independent of physical
   identity. *)
let group_by_dist combos results =
  List.map
    (fun dist ->
      ( dist,
        List.concat_map
          (fun ((d, _), rows) -> if Dist.name d = Dist.name dist then rows else [])
          (List.combine combos results) ))
    dists

let fig17 profile =
  let combos =
    List.concat_map (fun d -> List.map (fun s -> (d, s)) (srf_schemes profile)) dists
  in
  let results =
    Pool.run
      (List.map
         (fun (dist, scheme) () ->
           let r = run_std { (std profile scheme) with sp_dist = dist } in
           List.map (fun row -> Scheme.name scheme :: row) (fct_rows r))
         combos)
  in
  List.map
    (fun (dist, rows) ->
      {
        title =
          Printf.sprintf "Fig 17: %s, 60%% load, SRF schemes — FCT slowdown" (Dist.name dist);
        header = [ "scheme"; "bucket"; "n"; "avg"; "p50"; "p95"; "p99" ];
        rows;
      })
    (group_by_dist combos results)

(* ------------------------------------------------------------------ *)
(* Table 2: scheduled-traffic queuing delay in the core.                *)

let table2_point profile scheme () =
  let cl, env =
    prepare (Clos profile) scheme { Runner.default_params with homa_dist = Dist.fb_hadoop }
  in
  let bdp = Runner.bdp env in
  let prms =
    Bfc_transport.Homa.params_for ~dist:Dist.fb_hadoop ~total_prios:32 ~rtt_bytes:bdp
  in
  let unsched = prms.Bfc_transport.Homa.unsched_prios in
  let spine_set = Array.to_list cl.Topology.spines in
  let tor_set = Array.to_list cl.Topology.tors in
  let is_spine n = List.mem n spine_set and is_tor n = List.mem n tor_set in
  (* one watcher per direction, scheduled packets only *)
  let watch ~from ~towards =
    Metrics.watch_queue_delay env ~filter:(fun ~sw ~egress pkt ->
        Packet.prio pkt >= unsched
        && from sw
        && towards (Bfc_net.Port.peer (Topology.port cl.Topology.t sw egress)).Bfc_net.Node.id)
  in
  let agg_tor = watch ~from:is_spine ~towards:is_tor in
  let tor_agg = watch ~from:is_tor ~towards:is_spine in
  let dur = duration profile ~dist:Dist.fb_hadoop in
  (* the standard run's FB trace, on its own seed *)
  let flows = trace_flows { (std profile scheme) with sp_seed = 2 } ~cl ~dur in
  execute env ~until:dur ~budget:(4 * dur) (Flows flows);
  let v s p = if Sample.is_empty s then nan else Sample.percentile s p in
  [
    [ Scheme.name scheme; "Agg-ToR"; cell (v agg_tor 95.0); cell (v agg_tor 99.0) ];
    [ Scheme.name scheme; "ToR-Agg"; cell (v tor_agg 95.0); cell (v tor_agg 99.0) ];
  ]

let table2 profile =
  let rows =
    List.concat
      (Pool.run
         (List.map (table2_point profile) [ Scheme.homa; Scheme.homa_ecmp ]))
  in
  [
    {
      title = "Table 2: per-packet queuing delay of scheduled traffic in the core (us)";
      header = [ "scheme"; "link"; "p95(us)"; "p99(us)" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 18: single receiver, senders in the same rack (SRF accuracy).   *)

let fig18_point profile dist scheme () =
  let _, _, hosts_per_tor = clos_scale profile in
  let cl, env = prepare (Clos profile) scheme { Runner.default_params with homa_dist = dist } in
  (* receiver = host 0; senders = rest of its rack *)
  let recv = cl.Topology.cl_hosts.(0) in
  let rack = Array.sub cl.Topology.cl_hosts 1 (hosts_per_tor - 1) in
  let dur = 2 * duration profile ~dist in
  let flows =
    Traffic.to_one ~hosts:rack ~dst:recv ~gbps:100.0 ~dist ~arrivals:Arrivals.lognormal_default
      ~load:0.6 ~duration:dur ~seed:3 ~ids:(ref 0)
  in
  execute env ~until:dur ~budget:(4 * dur) (Flows flows);
  let stats = Metrics.fct_table env ~since:(dur / 10) flows in
  List.filter_map
    (fun (st : Metrics.fct_stats) ->
      if st.Metrics.count = 0 then None
      else
        Some
          [
            Scheme.name scheme;
            st.Metrics.bucket;
            string_of_int st.Metrics.count;
            cell st.Metrics.avg;
            cell st.Metrics.p99;
          ])
    stats

let fig18 profile =
  let schemes =
    match profile with
    | Smoke -> [ Scheme.homa; Scheme.bfc_srf ]
    | _ -> [ Scheme.homa; Scheme.bfc_srf; Scheme.Ideal_srf ]
  in
  let combos = List.concat_map (fun d -> List.map (fun s -> (d, s)) schemes) dists in
  let results =
    Pool.run
      (List.map
         (fun (dist, scheme) -> fig18_point profile dist scheme)
         combos)
  in
  List.map
    (fun (dist, rows) ->
      {
        title =
          Printf.sprintf "Fig 18: %s, single in-rack receiver — SRF accuracy" (Dist.name dist);
        header = [ "scheme"; "bucket"; "n"; "avg"; "p99" ];
        rows;
      })
    (group_by_dist combos results)

(* ------------------------------------------------------------------ *)
(* Fig. 19: priority inversions under incast.                           *)

let fig19 profile =
  let schemes =
    match profile with
    | Smoke -> [ Scheme.bfc_srf ]
    | _ -> [ Scheme.homa; Scheme.bfc_srf; Scheme.bfc ]
  in
  let combos = List.concat_map (fun d -> List.map (fun s -> (d, s)) schemes) dists in
  let results =
    Pool.run
      (List.map
         (fun (dist, scheme) () ->
           let r =
             run_std
               { (std profile scheme) with sp_dist = dist; sp_incast = Some default_incast }
           in
           List.map (fun row -> Scheme.name scheme :: row) (fct_rows r))
         combos)
  in
  List.map
    (fun (dist, rows) ->
      {
        title =
          Printf.sprintf "Fig 19: %s, 55%% + 5%% 100:1 incast — SRF under collisions"
            (Dist.name dist);
        header = [ "scheme"; "bucket"; "n"; "avg"; "p50"; "p95"; "p99" ];
        rows;
      })
    (group_by_dist combos results)
