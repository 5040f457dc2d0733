module Flow = Bfc_net.Flow
module Packet = Bfc_net.Packet
module Sim = Bfc_engine.Sim
module Switch = Bfc_switch.Switch
module Sample = Bfc_util.Stats.Sample

let size_buckets =
  [
    ("<3K", 0, 3_000);
    ("3-10K", 3_000, 10_000);
    ("10-30K", 10_000, 30_000);
    ("30-100K", 30_000, 100_000);
    ("100-300K", 100_000, 300_000);
    ("0.3-1M", 300_000, 1_000_000);
    ("1-3M", 1_000_000, 3_000_000);
    (">3M", 3_000_000, max_int);
  ]

type fct_stats = {
  bucket : string;
  count : int;
  avg : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let eligible ?(incast = false) ?(since = 0) flows =
  List.filter
    (fun f -> Flow.complete f && f.Flow.is_incast = incast && f.Flow.arrival >= since)
    flows

let stats_of ~bucket sample =
  if Sample.is_empty sample then
    { bucket; count = 0; avg = nan; p50 = nan; p95 = nan; p99 = nan }
  else
    {
      bucket;
      count = Sample.count sample;
      avg = Sample.mean sample;
      p50 = Sample.percentile sample 50.0;
      p95 = Sample.percentile sample 95.0;
      p99 = Sample.percentile sample 99.0;
    }

let fct_table env ?(incast = false) ?(since = 0) flows =
  let flows = eligible ~incast ~since flows in
  List.map
    (fun (bucket, lo, hi) ->
      let s = Sample.create () in
      List.iter
        (fun f -> if f.Flow.size >= lo && f.Flow.size < hi then Sample.add s (Runner.slowdown env f))
        flows;
      stats_of ~bucket s)
    size_buckets

let fct_overall env flows =
  let s = Sample.create () in
  List.iter (fun f -> if Flow.complete f then Sample.add s (Runner.slowdown env f)) flows;
  stats_of ~bucket:"all" s

(* ------------------------------------------------------------------ *)
(* Sketch-backed FCT statistics (streaming runs): instead of retaining a
   slowdown sample per flow, completions feed mergeable quantile sketches —
   one overall, one per size bucket — so memory is O(buckets) however many
   flows complete. *)

module Sketch = Bfc_obs.Sketch

type fct_sketches = {
  fs_since : Bfc_engine.Time.t;
  fs_overall : Sketch.t; (* every completed flow, incast included *)
  fs_buckets : Sketch.t array; (* non-incast, arrival >= since, by size *)
}

let n_size_buckets = List.length size_buckets

let sketches_create ?(alpha = 0.01) ?(since = 0) () =
  {
    fs_since = since;
    fs_overall = Sketch.create ~alpha ();
    fs_buckets = Array.init n_size_buckets (fun _ -> Sketch.create ~alpha ());
  }

let bucket_index =
  let arr = Array.of_list size_buckets in
  fun size ->
    let rec go i =
      if i >= Array.length arr then -1
      else begin
        let _, lo, hi = arr.(i) in
        if size >= lo && size < hi then i else go (i + 1)
      end
    in
    go 0

(* Feed one completed flow. Mirrors the eligibility rules of [fct_overall]
   (all completed flows) and [fct_table] (non-incast, arrival >= since). *)
let sketches_observe env sk f =
  let v = Runner.slowdown env f in
  Sketch.add sk.fs_overall v;
  if (not f.Flow.is_incast) && f.Flow.arrival >= sk.fs_since then begin
    let i = bucket_index f.Flow.size in
    if i >= 0 then Sketch.add sk.fs_buckets.(i) v
  end

let stats_of_sketch ~bucket sk =
  if Sketch.is_empty sk then { bucket; count = 0; avg = nan; p50 = nan; p95 = nan; p99 = nan }
  else
    {
      bucket;
      count = Sketch.count sk;
      avg = Sketch.mean sk;
      p50 = Sketch.percentile sk 50.0;
      p95 = Sketch.percentile sk 95.0;
      p99 = Sketch.percentile sk 99.0;
    }

let fct_table_of_sketches sk =
  List.mapi
    (fun i (bucket, _, _) -> stats_of_sketch ~bucket sk.fs_buckets.(i))
    size_buckets

let fct_overall_of_sketches sk = stats_of_sketch ~bucket:"all" sk.fs_overall

(* Total nonzero buckets across all sketches (progress reporting). *)
let sketches_buckets sk =
  Array.fold_left
    (fun a s -> a + Sketch.bucket_count s)
    (Sketch.bucket_count sk.fs_overall)
    sk.fs_buckets

(* Concatenated canonical encodings (overall first, then each size bucket):
   equal strings iff the sketch states are identical, whatever merge order
   produced them, so a run's sketches can be digested. *)
let sketches_encode sk =
  String.concat ""
    (Sketch.encode sk.fs_overall :: Array.to_list (Array.map Sketch.encode sk.fs_buckets))

let short_p99 env ?(since = 0) flows =
  let s = Sample.create () in
  List.iter
    (fun f ->
      if Flow.complete f && (not f.Flow.is_incast) && f.Flow.arrival >= since && f.Flow.size < 3_000
      then Sample.add s (Runner.slowdown env f))
    (List.filter (fun _ -> true) flows);
  if Sample.is_empty s then nan else Sample.percentile s 99.0

let long_avg env ?(threshold = 3_000_000) ?(since = 0) flows =
  let s = Sample.create () in
  List.iter
    (fun f ->
      if
        Flow.complete f && (not f.Flow.is_incast) && f.Flow.arrival >= since
        && f.Flow.size >= threshold
      then Sample.add s (Runner.slowdown env f))
    flows;
  if Sample.is_empty s then nan else Sample.mean s

let median_slowdown env flows =
  let s = Sample.create () in
  List.iter (fun f -> if Flow.complete f then Sample.add s (Runner.slowdown env f)) flows;
  if Sample.is_empty s then nan else Sample.percentile s 50.0

let watch_buffers env ~period =
  let s = Sample.create () in
  ignore
    (Sim.every (Runner.sim env) ~period (fun () ->
         Array.iter
           (fun sw -> Sample.add s (float_of_int (Switch.buffer_used sw)))
           (Runner.switches env)));
  s

let watch_active_flows env ~period =
  let s = Sample.create () in
  ignore
    (Sim.every (Runner.sim env) ~period (fun () ->
         Array.iter
           (fun sw ->
             for e = 0 to Switch.n_ports sw - 1 do
               (* only fabric-facing ports matter for Fig. 4/10c; counting
                  all switch egresses matches "at a port" in the paper *)
               Sample.add s (float_of_int (Switch.active_flows sw ~egress:e))
             done)
           (Runner.switches env)));
  s

type util_probe = { port : Bfc_net.Port.t; t0 : Bfc_engine.Time.t; b0 : int; env : Runner.env }

let utilization_probe env ~gid =
  let port = Bfc_net.Topology.port_by_gid (Runner.topo env) gid in
  { port; t0 = Sim.now (Runner.sim env); b0 = Bfc_net.Port.tx_bytes port; env }

let utilization probe =
  let now = Sim.now (Runner.sim probe.env) in
  let dt = now - probe.t0 in
  if dt <= 0 then 0.0
  else begin
    let bytes = Bfc_net.Port.tx_bytes probe.port - probe.b0 in
    let capacity = Bfc_net.Port.gbps probe.port /. 8.0 *. float_of_int dt in
    float_of_int bytes /. capacity
  end

let watch_queue_delay env ~filter =
  let s = Sample.create () in
  let sim = Runner.sim env and pool = Runner.pool env in
  Bfc_engine.Tap.on (Sim.tap sim) Bfc_engine.Tap.Dequeue (fun ~node key p ->
      let pkt = Bfc_net.Packet.Pool.get pool p in
      if
        Packet.kind pkt = Packet.Data
        && filter ~sw:node ~egress:(Bfc_engine.Tap.egress key) pkt
      then Sample.add s (float_of_int (Sim.now sim - Packet.enq_at pkt) /. 1000.0));
  s

let watchdog_fires env =
  let sw =
    Array.fold_left (fun acc s -> acc + Switch.watchdog_fires s) 0 (Runner.switches env)
  in
  Array.fold_left
    (fun acc h -> acc + Bfc_transport.Host.watchdog_fires (Runner.host env h))
    sw
    (Bfc_net.Topology.hosts (Runner.topo env))

let reboots env =
  Array.fold_left (fun acc s -> acc + Switch.reboots s) 0 (Runner.switches env)

let jain_fairness env ~min_size ?(max_size = max_int) flows =
  ignore env;
  let xs =
    List.filter_map
      (fun f ->
        if Flow.complete f && f.Flow.size >= min_size && f.Flow.size < max_size then
          Some (float_of_int f.Flow.size /. float_of_int (Flow.fct f))
        else None)
      flows
  in
  match xs with
  | [] -> nan
  | _ ->
    let n = float_of_int (List.length xs) in
    let s = List.fold_left ( +. ) 0.0 xs in
    let s2 = List.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
    s *. s /. (n *. s2)
