module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Tap = Bfc_engine.Tap
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

let wire_counters t env =
  let tap = Sim.tap (Runner.sim env) and pool = Runner.pool env in
  let topo = Runner.topo env in
  let counter name =
    let c = Registry.counter t.reg name in
    fun () -> Registry.incr t.reg c
  in
  (* registration order is the export order *)
  let enq = counter "sw_enqueues" in
  let deq = counter "sw_dequeues" in
  let drop = counter "sw_drops" in
  let ecn = counter "ecn_marks" in
  let pause = counter "queue_pauses" in
  let resume = counter "queue_resumes" in
  let tx = counter "port_tx_packets" in
  let nic_pause = counter "nic_pauses" in
  let nic_resume = counter "nic_resumes" in
  let sw_port = Array.make (Topology.total_ports topo) false in
  Array.iter
    (fun sw ->
      for p = 0 to Switch.n_ports sw - 1 do
        sw_port.(Port.gid (Switch.port sw p)) <- true
      done)
    (Runner.switches env);
  Tap.on tap Tap.Port_tx (fun ~node:_ gid _ -> if sw_port.(gid) then tx ());
  Tap.on tap Tap.Enqueue (fun ~node:_ _ _ -> enq ());
  Tap.on tap Tap.Dequeue (fun ~node:_ _ p ->
      deq ();
      if Packet.ecn (Packet.Pool.get pool p) then ecn ());
  Tap.on tap Tap.Drop (fun ~node:_ _ _ -> drop ());
  Tap.on tap Tap.Queue_pause (fun ~node:_ _ paused -> if paused = 1 then pause () else resume ());
  Tap.on tap Tap.Nic_pause (fun ~node:_ _ paused ->
      if paused = 1 then nic_pause () else nic_resume ())

let wire_trace t env b =
  let sim = Runner.sim env and pool = Runner.pool env in
  let tap = Sim.tap sim in
  let id_queued = Trace.intern b ~akey:"flow" ~bkey:"bytes" "queued" in
  let id_drop = Trace.intern b ~akey:"flow" ~bkey:"bytes" "drop" in
  let id_pause = Trace.intern b ~akey:"queue" "pause" in
  let id_paused = Trace.intern b ~akey:"queue" "paused" in
  let id_nic = Trace.intern b ~akey:"queue" ~bkey:"paused" "nic_pause" in
  Array.iter
    (fun sw ->
      Hashtbl.replace t.sw_qpp (Switch.node_id sw) (Switch.config sw).Switch.queues_per_port)
    (Runner.switches env);
  Array.iter (fun hid -> Hashtbl.replace t.host_ids hid ()) (Topology.hosts (Runner.topo env));
  let tid ~node key =
    sw_tid ~qpp:(Hashtbl.find t.sw_qpp node) ~egress:(Tap.egress key) ~queue:(Tap.queue key)
  in
  Tap.on tap Tap.Dequeue (fun ~node key p ->
      let pkt = Packet.Pool.get pool p in
      let ts = pkt.Packet.enq_at in
      Trace.complete b ~ts
        ~dur:(Sim.now sim - ts)
        ~name:id_queued ~pid:node ~tid:(tid ~node key) ~a:(Packet.flow_id pkt) ~b:pkt.Packet.size
        ());
  Tap.on tap Tap.Drop (fun ~node key p ->
      let pkt = Packet.Pool.get pool p in
      Trace.instant b ~ts:(Sim.now sim) ~name:id_drop ~pid:node ~tid:(tid ~node key)
        ~a:(Packet.flow_id pkt) ~b:pkt.Packet.size ());
  (* open pause spans, keyed by (pid, tid); find_opt/replace/remove only *)
  let pause_start = Hashtbl.create 64 in
  Tap.on tap Tap.Queue_pause (fun ~node key paused ->
      let tid = tid ~node key and queue = Tap.queue key in
      let now = Sim.now sim in
      if paused = 1 then begin
        Trace.instant b ~ts:now ~name:id_pause ~pid:node ~tid ~a:queue ();
        Hashtbl.replace pause_start (node, tid) now
      end
      else
        match Hashtbl.find_opt pause_start (node, tid) with
        | Some start ->
          Hashtbl.remove pause_start (node, tid);
          Trace.complete b ~ts:start ~dur:(now - start) ~name:id_paused ~pid:node ~tid ~a:queue ()
        | None -> ());
  Tap.on tap Tap.Nic_pause (fun ~node queue paused ->
      Trace.instant b ~ts:(Sim.now sim) ~name:id_nic ~pid:node ~tid:(nic_tid ~queue) ~a:queue
        ~b:paused ())

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
    wire_counters t env;
    Option.iter (wire_trace t env) tr;
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

let progress_reporter ~sketch_buckets env oc =
  let sim = Runner.sim env in
  let last_wall = ref (Bfc_util.Clock.now_s ()) in
  let last_events = ref (Runner.events_executed env) in
  ignore
    (Sim.every sim ~period:(Time.ms 1.0) (fun () ->
         let wall = Bfc_util.Clock.now_s () in
         let events = Runner.events_executed env in
         let dt = wall -. !last_wall in
         let eps =
           if dt > 0.0 then float_of_int (events - !last_events) /. dt /. 1e6 else 0.0
         in
         last_wall := wall;
         last_events := events;
         let heap_mw = float_of_int (Gc.quick_stat ()).Gc.heap_words /. 1e6 in
         Printf.fprintf oc
           "progress: t=%.3fms events=%d (%.2fM ev/s) flows=%d/%d sketch_buckets=%d \
            major_heap=%.1fMw\n%!"
           (float_of_int (Sim.now sim) /. 1e6)
           events eps (Runner.completed env) (Runner.injected env) (sketch_buckets ()) heap_mw))

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
