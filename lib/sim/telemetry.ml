module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Packet = Bfc_net.Packet
module Port = Bfc_net.Port
module Topology = Bfc_net.Topology
module Switch = Bfc_switch.Switch
module Host = Bfc_transport.Host
module Nic = Bfc_transport.Nic
module Registry = Bfc_obs.Registry
module Trace = Bfc_obs.Trace
module Series = Bfc_obs.Series

type config = {
  t_enabled : bool;
  t_trace : bool;
  t_trace_capacity : int;
  t_series_period : Time.t option;
}

let default_config =
  { t_enabled = true; t_trace = true; t_trace_capacity = 0; t_series_period = Some (Time.us 10.0) }

type t = {
  reg : Registry.t;
  tr : Trace.t option;
  ser : Series.t option;
  (* node-id -> queues_per_port, for track naming at export *)
  sw_qpp : (int, int) Hashtbl.t;
  host_ids : (int, unit) Hashtbl.t;
}

(* Track encoding on a switch pid: each egress owns [qpp + 1] tids — slot 0
   is the port-level PFC track, slots [1, qpp] are its queues. *)
let sw_tid ~qpp ~egress ~queue = (egress * (qpp + 1)) + queue + 1

let nic_tid ~queue = queue + 1 (* -1 (PFC uplink) -> 0 *)

let registry t = t.reg

let trace t = t.tr

let series t = t.ser

(* ------------------------------------------------------------------ *)

let wire_switches t env trace_ids =
  let sim = Runner.sim env in
  let c_enq = Registry.counter t.reg "sw_enqueues" in
  let c_deq = Registry.counter t.reg "sw_dequeues" in
  let c_drop = Registry.counter t.reg "sw_drops" in
  let c_ecn = Registry.counter t.reg "ecn_marks" in
  let c_pause = Registry.counter t.reg "queue_pauses" in
  let c_resume = Registry.counter t.reg "queue_resumes" in
  let c_tx = Registry.counter t.reg "port_tx_packets" in
  (* open pause spans, keyed by (pid, tid); find_opt/replace/remove only *)
  let pause_start = Hashtbl.create 64 in
  Array.iter
    (fun sw ->
      let pid = Switch.node_id sw in
      let qpp = (Switch.config sw).Switch.queues_per_port in
      Hashtbl.replace t.sw_qpp pid qpp;
      for p = 0 to Switch.n_ports sw - 1 do
        Port.set_on_tx (Switch.port sw p) (fun _pkt -> Registry.incr t.reg c_tx)
      done;
      let hk = Switch.hooks sw in
      let prev_enq = hk.Switch.on_enqueue in
      hk.Switch.on_enqueue <-
        (fun sw ~in_port ~egress ~queue pkt ->
          prev_enq sw ~in_port ~egress ~queue pkt;
          Registry.incr t.reg c_enq);
      let prev_deq = hk.Switch.on_dequeue in
      hk.Switch.on_dequeue <-
        (fun sw ~egress ~queue pkt ->
          prev_deq sw ~egress ~queue pkt;
          Registry.incr t.reg c_deq;
          if pkt.Packet.ecn then Registry.incr t.reg c_ecn;
          match (t.tr, trace_ids) with
          | Some b, Some (id_queued, _, _, _, _) ->
            let ts = pkt.Packet.enq_at in
            Trace.complete b ~ts
              ~dur:(Sim.now sim - ts)
              ~name:id_queued ~pid ~tid:(sw_tid ~qpp ~egress ~queue) ~a:(Packet.flow_id pkt)
              ~b:pkt.Packet.size ()
          | _ -> ());
      let prev_drop = hk.Switch.on_drop in
      hk.Switch.on_drop <-
        (fun sw ~in_port ~egress ~queue pkt ->
          prev_drop sw ~in_port ~egress ~queue pkt;
          Registry.incr t.reg c_drop;
          match (t.tr, trace_ids) with
          | Some b, Some (_, id_drop, _, _, _) ->
            Trace.instant b ~ts:(Sim.now sim) ~name:id_drop ~pid ~tid:(sw_tid ~qpp ~egress ~queue)
              ~a:(Packet.flow_id pkt) ~b:pkt.Packet.size ()
          | _ -> ());
      let prev_qp = hk.Switch.on_queue_pause in
      hk.Switch.on_queue_pause <-
        (fun sw ~egress ~queue ~paused ->
          prev_qp sw ~egress ~queue ~paused;
          Registry.incr t.reg (if paused then c_pause else c_resume);
          match (t.tr, trace_ids) with
          | Some b, Some (_, _, id_pause, id_paused, _) ->
            let tid = sw_tid ~qpp ~egress ~queue in
            let now = Sim.now sim in
            if paused then begin
              Trace.instant b ~ts:now ~name:id_pause ~pid ~tid ~a:queue ();
              Hashtbl.replace pause_start (pid, tid) now
            end
            else begin
              match Hashtbl.find_opt pause_start (pid, tid) with
              | Some start ->
                Hashtbl.remove pause_start (pid, tid);
                Trace.complete b ~ts:start ~dur:(now - start) ~name:id_paused ~pid ~tid ~a:queue
                  ()
              | None -> ()
            end
          | _ -> ()))
    (Runner.switches env)

let wire_nics t env trace_ids =
  let sim = Runner.sim env in
  let c_pause = Registry.counter t.reg "nic_pauses" in
  let c_resume = Registry.counter t.reg "nic_resumes" in
  Array.iter
    (fun hid ->
      Hashtbl.replace t.host_ids hid ();
      let nic = Host.nic (Runner.host env hid) in
      Nic.set_on_pause nic (fun ~queue ~paused ->
          Registry.incr t.reg (if paused then c_pause else c_resume);
          match (t.tr, trace_ids) with
          | Some b, Some (_, _, _, _, id_nic) ->
            Trace.instant b ~ts:(Sim.now sim) ~name:id_nic ~pid:hid ~tid:(nic_tid ~queue) ~a:queue
              ~b:(if paused then 1 else 0) ()
          | _ -> ()))
    (Topology.hosts (Runner.topo env))

let wire_gauges t env =
  let g name f = Registry.gauge t.reg name f in
  let switches = Runner.switches env in
  let hosts = Topology.hosts (Runner.topo env) in
  let nics = Array.map (fun hid -> Host.nic (Runner.host env hid)) hosts in
  let sum_over arr f = Array.fold_left (fun acc x -> acc + f x) 0 arr in
  g "buffer_bytes" (fun () -> float_of_int (sum_over switches Switch.buffer_used));
  g "buffer_bytes_max" (fun () ->
      float_of_int (Array.fold_left (fun m sw -> max m (Switch.buffer_used sw)) 0 switches));
  g "sw_paused_queues" (fun () -> float_of_int (sum_over switches Switch.paused_queues));
  g "nic_paused_queues" (fun () -> float_of_int (sum_over nics Nic.paused_queues));
  g "nic_backlog_bytes" (fun () -> float_of_int (sum_over nics Nic.backlog));
  g "active_flows" (fun () ->
      float_of_int
        (sum_over switches (fun sw ->
             let n = ref 0 in
             for e = 0 to Switch.n_ports sw - 1 do
               n := !n + Switch.active_flows sw ~egress:e
             done;
             !n)));
  g "flows_in_flight" (fun () -> float_of_int (Runner.injected env - Runner.completed env));
  g "flows_completed" (fun () -> float_of_int (Runner.completed env));
  let pool = Runner.pool env in
  g "pool_free" (fun () -> float_of_int (Packet.Pool.free_count pool));
  g "pool_allocated" (fun () -> float_of_int (Packet.Pool.allocated pool));
  g "pool_recycled" (fun () -> float_of_int (Packet.Pool.recycled pool));
  let sim = Runner.sim env in
  g "heap_live" (fun () -> float_of_int (Sim.profile sim).Sim.p_live);
  g "heap_hwm" (fun () -> float_of_int (Sim.profile sim).Sim.p_heap_hwm);
  g "events_executed" (fun () -> float_of_int (Runner.events_executed env));
  (* Process-level GC/heap residency: lets long runs watch for metric-side
     memory growth (the point of streaming mode) from the same series as
     the simulation gauges. quick_stat is cheap and exact for these
     fields. *)
  g "gc_heap_words" (fun () -> float_of_int (Gc.quick_stat ()).Gc.heap_words);
  g "gc_top_heap_words" (fun () -> float_of_int (Gc.quick_stat ()).Gc.top_heap_words);
  g "gc_minor_collections" (fun () -> float_of_int (Gc.quick_stat ()).Gc.minor_collections);
  g "gc_major_collections" (fun () -> float_of_int (Gc.quick_stat ()).Gc.major_collections);
  g "gc_major_words" (fun () -> (Gc.quick_stat ()).Gc.major_words)

let attach ?(config = default_config) env =
  let reg = Registry.create ~enabled:config.t_enabled () in
  let tr =
    if config.t_enabled && config.t_trace then Some (Trace.create ~capacity:config.t_trace_capacity ())
    else None
  in
  let t = { reg; tr; ser = None; sw_qpp = Hashtbl.create 16; host_ids = Hashtbl.create 64 } in
  if not config.t_enabled then t
  else begin
    let trace_ids =
      Option.map
        (fun b ->
          ( ( Trace.intern b ~akey:"flow" ~bkey:"bytes" "queued",
              Trace.intern b ~akey:"flow" ~bkey:"bytes" "drop",
              Trace.intern b ~akey:"queue" "pause",
              Trace.intern b ~akey:"queue" "paused",
              Trace.intern b ~akey:"queue" ~bkey:"paused" "nic_pause" ) ))
        tr
    in
    wire_switches t env trace_ids;
    wire_nics t env trace_ids;
    wire_gauges t env;
    let ser =
      match config.t_series_period with
      | None -> None
      | Some period ->
        let s = Series.create reg in
        let sim = Runner.sim env in
        let _ticker = Sim.every sim ~period (fun () -> Series.sample s ~now:(Sim.now sim)) in
        Some s
    in
    { t with ser }
  end

(* ------------------------------------------------------------------ *)
(* Live progress: one line per sim-time period so long streaming runs are
   observable from a terminal while they execute. Wall time comes from the
   sanctioned Bfc_util.Clock; events/sec is measured over the interval
   since the previous report. *)

let progress_reporter ?(period = Time.ms 1.0) ?sketch_buckets env oc =
  let sim = Runner.sim env in
  let last_wall = ref (Bfc_util.Clock.now_s ()) in
  let last_events = ref (Runner.events_executed env) in
  ignore
    (Sim.every sim ~period (fun () ->
         let wall = Bfc_util.Clock.now_s () in
         let events = Runner.events_executed env in
         let dt = wall -. !last_wall in
         let eps =
           if dt > 0.0 then float_of_int (events - !last_events) /. dt /. 1e6 else 0.0
         in
         last_wall := wall;
         last_events := events;
         let heap_mw = float_of_int (Gc.quick_stat ()).Gc.heap_words /. 1e6 in
         let sk =
           match sketch_buckets with
           | Some f -> Printf.sprintf " sketch_buckets=%d" (f ())
           | None -> ""
         in
         Printf.fprintf oc
           "progress: t=%.3fms events=%d (%.2fM ev/s) flows=%d/%d%s major_heap=%.1fMw\n%!"
           (float_of_int (Sim.now sim) /. 1e6)
           events eps (Runner.completed env) (Runner.injected env) sk heap_mw))

(* ------------------------------------------------------------------ *)
(* Export *)

let process_name t ~pid =
  if Hashtbl.mem t.sw_qpp pid then Some (Printf.sprintf "switch %d" pid)
  else if Hashtbl.mem t.host_ids pid then Some (Printf.sprintf "host %d" pid)
  else None

let track_name t ~pid ~tid =
  match Hashtbl.find_opt t.sw_qpp pid with
  | Some qpp ->
    let egress = tid / (qpp + 1) and slot = tid mod (qpp + 1) in
    if slot = 0 then Some (Printf.sprintf "eg%d/pfc" egress)
    else Some (Printf.sprintf "eg%d/q%d" egress (slot - 1))
  | None ->
    if Hashtbl.mem t.host_ids pid then
      if tid = 0 then Some "nic/pfc" else Some (Printf.sprintf "nic/q%d" (tid - 1))
    else None

let write_trace t oc =
  match t.tr with
  | None -> ()
  | Some b ->
    Trace.to_chrome
      ~process_name:(fun ~pid -> process_name t ~pid)
      ~track_name:(fun ~pid ~tid -> track_name t ~pid ~tid)
      b oc

let write_jsonl t oc =
  match t.tr with
  | None -> ()
  | Some b -> Trace.to_jsonl b oc

let write_series t oc =
  match t.ser with
  | None -> ()
  | Some s -> Series.to_csv s oc

let counters_json t = Registry.to_json t.reg

let engine_profile_json env =
  let p = Sim.profile (Runner.sim env) in
  Printf.sprintf
    "{\"executed\":%d,\"typed\":%d,\"one_shot\":%d,\"reusable\":%d,\"ticker\":%d,\"heap_hwm\":%d,\"heap_capacity\":%d,\"cancels\":%d,\"live\":%d}"
    p.Sim.p_executed p.Sim.p_typed p.Sim.p_one_shot p.Sim.p_reusable p.Sim.p_ticker p.Sim.p_heap_hwm
    p.Sim.p_heap_capacity p.Sim.p_cancels p.Sim.p_live
