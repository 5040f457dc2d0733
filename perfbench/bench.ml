(* One repetition of one benchmark measurement, run as a fresh process so
   the heap figures belong to this repetition alone.

   Usage:
     bench.exe seed N               -- N-th simulation seed of reference volume
     bench.exe run WORKLOAD SEED    -- untraced: host times, counters, digest
     bench.exe trace WORKLOAD SEED  -- traced: per-hook spans (run_std only)
     bench.exe sched DEPTH          -- scheduler-only synthetic event mix
     bench.exe calib                -- span-cost calibration of the tracer

   WORKLOAD is bfc_quick, dcqcn_quick or flow_churn; SEED is a simulation
   seed (for the run_std workloads, one that [seed] resolved). Every mode
   prints one JSON object on stdout; perfbench/run.py drives the
   repetitions, checks the digests and aggregates the metrics.

   Everything here is measured from outside the simulator: host time
   around calls into public functions, public counters read after the
   run, and (traced mode only) spans around the switch hooks, which are
   public mutable fields. *)

module Sim = Bfc_engine.Sim
module Time = Bfc_engine.Time
module Exp_common = Bfc_sim.Exp_common
module Runner = Bfc_sim.Runner
module Scheme = Bfc_sim.Scheme
module Metrics = Bfc_sim.Metrics
module Switch = Bfc_switch.Switch
module Port = Bfc_net.Port
module Topology = Bfc_net.Topology
module Dataplane = Bfc_core.Dataplane
module Host = Bfc_transport.Host
module Nic = Bfc_transport.Nic

(* single-MTU flows pushed through run_stream by the flow_churn workload *)
let churn_flows = 200_000

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* ------------------------------------------------------------------ *)
(* Output: one flat JSON object. *)

let fields = ref []

let put k v = fields := Printf.sprintf "%S: %s" k v :: !fields

let int k v = put k (string_of_int v)

let num k v = put k (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")

let str k v = put k (Printf.sprintf "%S" v)

let emit () = print_endline ("{" ^ String.concat ", " (List.rev !fields) ^ "}")

let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* Spans. Each wrapped call reads the minor-allocation counter and the
   monotonic clock on both sides (neither allocates), so a span records
   its call count, host nanoseconds and minor words. The [let] before each
   [fun] keeps the wrapper a real 4-/5-/3-argument closure rather than a
   partial application, which would allocate on every call. *)

type span = { mutable calls : int; mutable ns : int; words : float array }

let span () = { calls = 0; ns = 0; words = [| 0.0 |] }

let wrap_classify sp f =
  let words = sp.words in
  fun sw ~in_port ~egress pkt ->
    let w0 = Gc.minor_words () in
    let t0 = Monotonic_clock.now () in
    let r = f sw ~in_port ~egress pkt in
    let t1 = Monotonic_clock.now () in
    words.(0) <- words.(0) +. (Gc.minor_words () -. w0);
    sp.calls <- sp.calls + 1;
    sp.ns <- sp.ns + Int64.to_int (Int64.sub t1 t0);
    r

let wrap_enqueue sp f =
  let words = sp.words in
  fun sw ~in_port ~egress ~queue pkt ->
    let w0 = Gc.minor_words () in
    let t0 = Monotonic_clock.now () in
    let r = f sw ~in_port ~egress ~queue pkt in
    let t1 = Monotonic_clock.now () in
    words.(0) <- words.(0) +. (Gc.minor_words () -. w0);
    sp.calls <- sp.calls + 1;
    sp.ns <- sp.ns + Int64.to_int (Int64.sub t1 t0);
    r

(* on_dequeue and admit share this shape *)
let wrap_egress sp f =
  let words = sp.words in
  fun sw ~egress ~queue pkt ->
    let w0 = Gc.minor_words () in
    let t0 = Monotonic_clock.now () in
    let r = f sw ~egress ~queue pkt in
    let t1 = Monotonic_clock.now () in
    words.(0) <- words.(0) +. (Gc.minor_words () -. w0);
    sp.calls <- sp.calls + 1;
    sp.ns <- sp.ns + Int64.to_int (Int64.sub t1 t0);
    r

let wrap_ctrl sp f =
  let words = sp.words in
  fun sw ~in_port pkt ->
    let w0 = Gc.minor_words () in
    let t0 = Monotonic_clock.now () in
    let r = f sw ~in_port pkt in
    let t1 = Monotonic_clock.now () in
    words.(0) <- words.(0) +. (Gc.minor_words () -. w0);
    sp.calls <- sp.calls + 1;
    sp.ns <- sp.ns + Int64.to_int (Int64.sub t1 t0);
    r

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* What one span costs, measured on a no-op callee in the same wrapper the
   admit hook gets: [bias] is the duration a span reports around nothing
   (subtracted from every span), [cost] the host time the wrapper adds to
   the run per call, [words] its own allocation per call (expected 0).
   Median of 7 trials of 1 M calls each. *)
let calibrate () =
  let n = 1_000_000 in
  let noop = Sys.opaque_identity (fun () ~egress:_ ~queue:_ () -> true) in
  let loop g =
    let t0 = now_ns () in
    for i = 1 to n do
      ignore (Sys.opaque_identity (g () ~egress:i ~queue:0 ()))
    done;
    now_ns () - t0
  in
  let trials =
    List.init 7 (fun _ ->
        let sp = span () in
        let wrapped = Sys.opaque_identity (wrap_egress sp noop) in
        let bare = loop noop in
        let full = loop wrapped in
        let per x = float_of_int x /. float_of_int n in
        (per sp.ns, per (full - bare), sp.words.(0) /. float_of_int n))
  in
  ( median (List.map (fun (b, _, _) -> b) trials),
    median (List.map (fun (_, c, _) -> c) trials),
    median (List.map (fun (_, _, w) -> w) trials) )

let put_calibration () =
  let bias, cost, words = calibrate () in
  num "span_bias_ns" bias;
  num "span_cost_ns" cost;
  num "span_words" words

(* ------------------------------------------------------------------ *)
(* The traced run's observers, attached in [sp_obs]: spans around every
   switch's dataplane and admission hooks, a transmission count through
   each port's tx tap, NIC pause transitions chained onto the existing
   pause tap, and a completion observer on every host. *)

type tracer = {
  classify : span;
  enqueue : span;
  dequeue : span;
  ctrl : span;
  admit : span;
  tx : int ref;
  nic_pauses : int ref;
  completions : int ref;
}

let tracer () =
  {
    classify = span ();
    enqueue = span ();
    dequeue = span ();
    ctrl = span ();
    admit = span ();
    tx = ref 0;
    nic_pauses = ref 0;
    completions = ref 0;
  }

let attach tr env =
  Array.iter
    (fun sw ->
      let h = Switch.hooks sw in
      h.Switch.classify <- wrap_classify tr.classify h.Switch.classify;
      h.Switch.on_enqueue <- wrap_enqueue tr.enqueue h.Switch.on_enqueue;
      h.Switch.on_dequeue <- wrap_egress tr.dequeue h.Switch.on_dequeue;
      h.Switch.on_ctrl <- wrap_ctrl tr.ctrl h.Switch.on_ctrl;
      h.Switch.admit <- wrap_egress tr.admit h.Switch.admit)
    (Runner.switches env);
  let topo = Runner.topo env in
  for gid = 0 to Topology.total_ports topo - 1 do
    Port.set_on_tx (Topology.port_by_gid topo gid) (fun _ -> incr tr.tx)
  done;
  Runner.iter_hosts env (fun h ->
      let nic = Host.nic h in
      let prev = Nic.on_pause nic in
      Nic.set_on_pause nic (fun ~queue ~paused ->
          prev ~queue ~paused;
          incr tr.nic_pauses);
      Host.add_on_complete h (fun _ -> incr tr.completions))

let put_span name sp =
  int (name ^ ".calls") sp.calls;
  int (name ^ ".ns") sp.ns;
  num (name ^ ".words") sp.words.(0)

(* ------------------------------------------------------------------ *)
(* Workloads *)

(* Offered bytes of the Quick standard run's flow list for [seed]: the
   Traffic spec Exp_common builds for it (uniform matrix, no incast, one
   class). A run checks this against the flow list it actually ran. *)
let offered_bytes () =
  let s = Exp_common.std Exp_common.Quick Scheme.bfc in
  let spines, tors, hosts_per_tor = Exp_common.clos_scale Exp_common.Quick in
  let cl =
    Topology.clos (Sim.create ()) ~spines ~tors ~hosts_per_tor ~gbps:100.0 ~prop:(Time.us 1.0)
  in
  let hosts = cl.Topology.cl_hosts in
  let n_hosts = Array.length hosts in
  fun seed ->
    let spec =
      {
        Bfc_workload.Traffic.hosts;
        dist = s.Exp_common.sp_dist;
        arrivals = Bfc_workload.Arrivals.lognormal_default;
        load = s.Exp_common.sp_load;
        ref_capacity_gbps = float_of_int (spines * tors) *. 100.0;
        core_fraction =
          1.0 -. (float_of_int (hosts_per_tor - 1) /. float_of_int (n_hosts - 1));
        matrix = Bfc_workload.Traffic.Uniform;
        duration = Exp_common.duration Exp_common.Quick ~dist:s.Exp_common.sp_dist;
        seed;
        prio_classes = 1;
      }
    in
    List.fold_left
      (fun a f -> a + f.Bfc_net.Flow.size)
      0
      (Bfc_workload.Traffic.generate spec ~ids:(ref 0))

(* fb_hadoop's heavy tail makes a seed's offered volume (and so its host
   time) vary by ~20% from seed to seed. Seed index [n] therefore names the
   first simulation seed at or after [1 + 64 |n - 1|] whose offered bytes
   lie within 2% of seed 1's: the volume is held at the reference run's,
   and the seed varies only the traffic's arrangement. Index 1 is
   simulation seed 1, the reference run. *)
let std_sim_seed n =
  let offered = offered_bytes () in
  let reference = float_of_int (offered 1) in
  let rec scan s =
    let bytes = offered s in
    if Float.abs ((float_of_int bytes /. reference) -. 1.0) <= 0.02 then (s, bytes)
    else scan (s + 1)
  in
  scan (1 + (64 * abs (n - 1)))

let std_setup workload seed obs =
  let scheme =
    match workload with
    | "bfc_quick" -> Scheme.bfc
    | "dcqcn_quick" -> Scheme.dcqcn
    | w -> invalid_arg ("bench: not a run_std workload: " ^ w)
  in
  { (Exp_common.std Exp_common.Quick scheme) with Exp_common.sp_seed = seed; sp_obs = obs }

let sum_array f a = Array.fold_left (fun acc x -> acc + f x) 0 a

let dataplane_totals env =
  let dps = Array.map Dataplane.stats (Runner.dataplanes env) in
  ( sum_array (fun s -> s.Dataplane.pauses_sent) dps,
    sum_array (fun s -> s.Dataplane.resumes_sent) dps,
    sum_array (fun s -> s.Dataplane.packets_counted) dps,
    sum_array (fun s -> s.Dataplane.queue_collisions) dps )

(* The simulated result of a run_std workload, as a digest: identical in
   every repetition, traced or not, for a given workload and seed. *)
let std_digest (r : Exp_common.std_result) ~events =
  let env = r.Exp_common.env in
  let pauses, resumes, counted, collisions = dataplane_totals env in
  let fct = String.concat ";" (List.map (String.concat ",") (Exp_common.fct_rows r)) in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "events=%d injected=%d completed=%d drops=%d dp=%d/%d/%d/%d fct=%s" events
          (Runner.injected env) (Runner.completed env) (Runner.total_drops env) pauses resumes
          counted collisions fct))

let put_gc_delta (g0 : Gc.stat) (g1 : Gc.stat) =
  num "promoted_words" (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  int "major_collections" (g1.Gc.major_collections - g0.Gc.major_collections)

let std_rep workload seed ~traced =
  let tr = if traced then Some (tracer ()) else None in
  if traced then put_calibration ();
  let t_setup_end = ref 0 and t_run = ref 0 in
  let g_run = ref (Gc.quick_stat ()) and w_run = ref 0.0 in
  (* [sp_obs] fires once set-up (topology, Runner.setup, flow generation,
     metric watchers) is done and just before the flows are injected *)
  let obs env =
    t_setup_end := now_ns ();
    Option.iter (fun tr -> attach tr env) tr;
    g_run := Gc.quick_stat ();
    w_run := Gc.minor_words ();
    t_run := now_ns ()
  in
  let t0 = now_ns () in
  let r = Exp_common.run_std (std_setup workload seed obs) in
  let run_s = secs_since !t_run in
  let run_words = Gc.minor_words () -. !w_run in
  let g1 = Gc.quick_stat () in
  num "setup_s" (float_of_int (!t_setup_end - t0) /. 1e9);
  num "run_s" run_s;
  num "peak_heap_mb" (heap_mb ());
  let env = r.Exp_common.env in
  let p = Sim.profile (Runner.sim env) in
  let events = p.Sim.p_executed in
  str "digest" (std_digest r ~events);
  int "injected" (Runner.injected env);
  int "completed" (Runner.completed env);
  int "offered_bytes" (List.fold_left (fun a f -> a + f.Bfc_net.Flow.size) 0 r.Exp_common.flows);
  int "engine.events" events;
  int "engine.typed_events" p.Sim.p_typed;
  int "engine.closure_events" (p.Sim.p_one_shot + p.Sim.p_reusable + p.Sim.p_ticker);
  int "engine.cancels" p.Sim.p_cancels;
  int "engine.queue_hwm" p.Sim.p_heap_hwm;
  let topo = Runner.topo env in
  let ports = Array.init (Topology.total_ports topo) (Topology.port_by_gid topo) in
  let switches = Runner.switches env in
  int "port.tx_packets" (sum_array Port.tx_packets ports);
  int "port.tx_bytes" (sum_array Port.tx_bytes ports);
  int "switch.rx_packets" (sum_array Switch.rx_packets switches);
  int "switch.drops" (Runner.total_drops env);
  num "switch.pfc_pause_frac" (Runner.pfc_pause_fraction env);
  num "switch.buffer_p99_bytes" (Exp_common.buffer_p99 r);
  let pauses, resumes, counted, collisions = dataplane_totals env in
  int "dataplane.pauses_sent" pauses;
  int "dataplane.resumes_sent" resumes;
  int "dataplane.packets_counted" counted;
  int "dataplane.queue_collisions" collisions;
  let sent = ref 0 and retx = ref 0 in
  Runner.iter_hosts env (fun h ->
      sent := !sent + Host.bytes_sent h;
      retx := !retx + Host.bytes_retransmitted h);
  int "transport.flows_completed" (Runner.completed env);
  int "transport.bytes_sent" !sent;
  int "transport.bytes_retransmitted" !retx;
  let pool = Runner.pool env in
  int "pool.packets_allocated" (Bfc_net.Packet.Pool.allocated pool);
  int "pool.packets_recycled" (Bfc_net.Packet.Pool.recycled pool);
  put_gc_delta !g_run g1;
  num "run_minor_words" run_words;
  Option.iter
    (fun tr ->
      put_span "classify" tr.classify;
      put_span "enqueue" tr.enqueue;
      put_span "dequeue" tr.dequeue;
      put_span "ctrl" tr.ctrl;
      put_span "admit" tr.admit;
      int "tap.tx" !(tr.tx);
      int "tap.nic_pauses" !(tr.nic_pauses);
      int "tap.completions" !(tr.completions))
    tr

(* flow_churn: run_stream builds its own environment, so set-up is timed
   on an identical Sim + Clos + Runner.setup just before it, and the run
   is the whole run_stream call. No environment comes back, so only the
   engine, gc, metrics and transport figures in its report are read. *)
let churn_rep seed =
  let t0 = now_ns () in
  let sim = Sim.create () in
  let cl = Topology.clos sim ~spines:4 ~tors:4 ~hosts_per_tor:8 ~gbps:100.0 ~prop:(Time.us 1.0) in
  ignore
    (Sys.opaque_identity
       (Runner.setup ~topo:cl.Topology.t ~scheme:Scheme.bfc
          ~params:{ Runner.default_params with seed; streaming = true }));
  num "setup_s" (secs_since t0);
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t1 = now_ns () in
  let r = Exp_common.run_stream ~seed ~streaming:true ~flows:churn_flows () in
  num "run_s" (secs_since t1);
  let run_words = Gc.minor_words () -. w0 in
  let g1 = Gc.quick_stat () in
  num "peak_heap_mb" (heap_mb ());
  let sk = Option.get r.Exp_common.sr_sketches in
  str "digest"
    (Digest.to_hex
       (Digest.string
          (Printf.sprintf "events=%d injected=%d completed=%d sketches=%s"
             r.Exp_common.sr_events r.Exp_common.sr_injected r.Exp_common.sr_completed
             (Metrics.sketches_encode sk))));
  int "injected" r.Exp_common.sr_injected;
  int "completed" r.Exp_common.sr_completed;
  int "engine.events" r.Exp_common.sr_events;
  int "transport.flows_completed" r.Exp_common.sr_completed;
  int "metrics.sketch_buckets" (Metrics.sketches_buckets sk);
  put_gc_delta g0 g1;
  num "run_minor_words" run_words

(* ------------------------------------------------------------------ *)
(* Scheduler-only event mix: a no-op typed class on a free class id, held at
   [depth] pending events whose executor re-posts itself 1..2048 ns ahead
   until [n] events have run, then drains. Only the public
   register_class / post / run path is exercised. Median of 3 trials. *)
let sched_rep depth =
  let n = 2_000_000 in
  let trial () =
    let sim = Sim.create () in
    let cls = Sim.n_classes - 1 in
    let remaining = ref n and lcg = ref 0x2545F491 in
    let delta () =
      lcg := ((!lcg * 1103515245) + 12345) land 0x3FFF_FFFF;
      1 + ((!lcg lsr 8) land 2047)
    in
    Sim.register_class sim ~cls ~state:Sim.No_state ~exec:(fun _ _ _ ->
        if !remaining > 0 then begin
          decr remaining;
          Sim.post sim (Sim.now sim + delta ()) ~cls ~a0:0 ~a1:0
        end);
    for _ = 1 to depth do
      Sim.post sim (delta ()) ~cls ~a0:0 ~a1:0
    done;
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let events = Sim.run_until_idle sim in
    let ns = now_ns () - t0 in
    let words = Gc.minor_words () -. w0 in
    (float_of_int ns /. float_of_int events, words /. float_of_int events)
  in
  let trials = List.init 3 (fun _ -> trial ()) in
  num "sched_ns_per_event" (median (List.map fst trials));
  num "sched_words_per_event" (median (List.map snd trials))

let usage () =
  prerr_endline
    "usage: bench.exe seed N | bench.exe (run|trace) WORKLOAD SEED | bench.exe sched DEPTH | \
     bench.exe calib";
  exit 2

let () =
  (match Array.to_list Sys.argv |> List.tl with
  | [ "seed"; n ] ->
    let seed, bytes = std_sim_seed (int_of_string n) in
    int "sim_seed" seed;
    int "offered_bytes" bytes
  | [ "run"; "flow_churn"; seed ] -> churn_rep (int_of_string seed)
  | [ "run"; w; seed ] -> std_rep w (int_of_string seed) ~traced:false
  | [ "trace"; w; seed ] -> std_rep w (int_of_string seed) ~traced:true
  | [ "sched"; depth ] -> sched_rep (int_of_string depth)
  | [ "calib" ] -> put_calibration ()
  | _ -> usage ());
  emit ()
