module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Topology = Bfc_net.Topology
module Dist = Bfc_workload.Dist
module Traffic = Bfc_workload.Traffic
module Arrivals = Bfc_workload.Arrivals
module Sample = Bfc_util.Stats.Sample

type profile = Smoke | Quick | Paper

let profile_of_string = function
  | "smoke" -> Smoke
  | "quick" -> Quick
  | "paper" -> Paper
  | s -> invalid_arg (Printf.sprintf "unknown profile %S (smoke|quick|paper)" s)

type table = { title : string; header : string list; rows : string list list }

let print_table t = Bfc_util.Ascii_table.print ~title:t.title ~header:t.header t.rows

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let write_csv t ~path =
  let oc = open_out path in
  output_string oc ("# " ^ t.title ^ "\n");
  List.iter
    (fun row -> output_string oc (String.concat "," (List.map csv_escape row) ^ "\n"))
    (t.header :: t.rows);
  close_out oc

let cell = Bfc_util.Ascii_table.float_cell

let clos_scale = function
  | Smoke -> (2, 2, 4)
  | Quick -> (4, 4, 8)
  | Paper -> (8, 8, 16)

let duration profile ~dist =
  (* Budget enough trace time for a few thousand flows at Quick scale. *)
  let mean = Dist.mean dist in
  let base =
    match profile with
    | Smoke -> Time.us 300.0
    | Quick -> Time.ms 1.2
    | Paper -> Time.ms 10.0
  in
  (* heavier-flow workloads need longer traces for the same flow count *)
  if mean > 50_000.0 then 2 * base else base

type incast_mix = { degree : int; agg_frac_of_paper : float }

let default_incast = { degree = 100; agg_frac_of_paper = 1.0 }

type stream = { alpha : float; flowlog : string option; progress : bool }

type workload = Trace | Stream of int

type std_setup = {
  sp_profile : profile;
  sp_scheme : Scheme.t;
  sp_workload : workload;
  sp_dist : Dist.t;
  sp_load : float;
  sp_incast : incast_mix option;
  sp_classes : int;
  sp_locality : float option;
  sp_track_active : bool;
  sp_seed : int;
  sp_dur_mult : float;
  sp_stream : stream option;
  sp_params : Runner.params -> Runner.params;
  sp_obs : Runner.env -> unit;
}

let std profile scheme =
  {
    sp_profile = profile;
    sp_scheme = scheme;
    sp_workload = Trace;
    sp_dist = Dist.fb_hadoop;
    sp_load = 0.6;
    sp_incast = None;
    sp_classes = 1;
    sp_locality = None;
    sp_track_active = false;
    sp_seed = 1;
    sp_dur_mult = 1.0;
    sp_stream = None;
    sp_params = (fun p -> p);
    sp_obs = ignore;
  }

type std_result = {
  env : Runner.env;
  flows : Bfc_net.Flow.t list;
  buffers : Sample.t;
  active : Sample.t option;
  measure_from : Time.t;
  sketches : Metrics.fct_sketches option; (* present iff the run streamed *)
}

let std_params s =
  s.sp_params
    {
      Runner.default_params with
      track_active_flows = s.sp_track_active;
      classes = s.sp_classes;
      seed = s.sp_seed;
      homa_dist = s.sp_dist;
      streaming = Option.is_some s.sp_stream;
    }

let ns_to_s t = float_of_int t /. 1e9

let flow_record env f =
  {
    Bfc_obs.Flowlog.id = f.Bfc_net.Flow.id;
    src = f.Bfc_net.Flow.src;
    dst = f.Bfc_net.Flow.dst;
    size = f.Bfc_net.Flow.size;
    incast = f.Bfc_net.Flow.is_incast;
    prio_class = f.Bfc_net.Flow.prio_class;
    arrival = ns_to_s f.Bfc_net.Flow.arrival;
    fct = ns_to_s (Bfc_net.Flow.fct f);
    ideal = ns_to_s (Runner.ideal_fct env f);
  }

let std_duration s =
  int_of_float (s.sp_dur_mult *. float_of_int (duration s.sp_profile ~dist:s.sp_dist))

(* The full workload of a standard run. Purely a function of the setup,
   the topology structure and seeded RNGs — no simulator state. *)
let gen_flows s ~cl ~dur =
  let spines, tors, hosts_per_tor = clos_scale s.sp_profile in
  let hosts = cl.Topology.cl_hosts in
  let n_hosts = Array.length hosts in
  let core_gbps = float_of_int (spines * tors) *. 100.0 in
  let uniform_cross = 1.0 -. (float_of_int (hosts_per_tor - 1) /. float_of_int (n_hosts - 1)) in
  let matrix, core_fraction =
    match s.sp_locality with
    | None -> (Traffic.Uniform, uniform_cross)
    | Some local_frac ->
      ( Traffic.Rack_local { local_frac; rack_of = cl.Topology.rack_of },
        1.0 -. local_frac )
  in
  let bg_load, incast_flows, ids =
    let ids = ref 0 in
    match s.sp_incast with
    | None -> (s.sp_load, [], ids)
    | Some im ->
      (* the paper's convention: total load includes 5% incast *)
      let frac = 0.05 in
      let agg =
        max 100_000
          (int_of_float (20e6 *. im.agg_frac_of_paper *. (core_gbps /. 6400.0)))
      in
      let period = Traffic.period_for_load ~agg_size:agg ~frac ~ref_capacity_gbps:core_gbps in
      let inc =
        Traffic.generate_incast
          {
            Traffic.i_hosts = hosts;
            degree = im.degree;
            agg_size = agg;
            period;
            i_duration = dur;
            i_seed = s.sp_seed + 1000;
          }
          ~ids
      in
      (s.sp_load -. frac, inc, ids)
  in
  let spec =
    {
      Traffic.hosts;
      dist = s.sp_dist;
      arrivals = Arrivals.lognormal_default;
      load = bg_load;
      ref_capacity_gbps = core_gbps;
      core_fraction;
      matrix;
      duration = dur;
      seed = s.sp_seed;
      prio_classes = s.sp_classes;
    }
  in
  let bg = Traffic.generate spec ~ids in
  Traffic.merge [ bg; incast_flows ]

(* The windowed single-MTU workload: [n] flows between uniformly random
   host pairs, arriving evenly at [sp_load] of the hosts' aggregate line
   rate. Arrivals are generated two 50 us windows ahead of the clock, so
   at most a window's worth of new records exists at a time. Returns the
   horizon (just past the last arrival) and the thunk that injects the
   first two windows and then starts the window ticker. *)
let stream_flows s env ~hosts ~n =
  if n <= 0 then invalid_arg "Exp_common.run_std: a stream needs a positive flow count";
  let sim = Runner.sim env in
  let n_hosts = Array.length hosts in
  let size = (Runner.params env).Runner.mtu in
  let bytes_per_ns = float_of_int n_hosts *. 12.5 *. s.sp_load in
  let delta_ns = float_of_int size /. bytes_per_ns in
  let arrival_of k = 1 + int_of_float (float_of_int k *. delta_ns) in
  let rng = Bfc_util.Rng.create s.sp_seed in
  let next = ref 0 in
  let gen_until t_end =
    let batch = ref [] in
    while !next < n && arrival_of !next < t_end do
      let src = hosts.(Bfc_util.Rng.int rng n_hosts) in
      let dst = ref src in
      while !dst = src do
        dst := hosts.(Bfc_util.Rng.int rng n_hosts)
      done;
      batch :=
        Bfc_net.Flow.make ~id:!next ~src ~dst:!dst ~size ~arrival:(arrival_of !next) ()
        :: !batch;
      incr next
    done;
    if !batch <> [] then Runner.inject env (List.rev !batch)
  in
  let window = Time.us 50.0 in
  let start () =
    gen_until (2 * window);
    ignore (Sim.every sim ~period:window (fun () -> gen_until (Sim.now sim + (2 * window))))
  in
  (arrival_of n + 1, start)

let run_std s =
  let sim = Sim.create () in
  let spines, tors, hosts_per_tor = clos_scale s.sp_profile in
  let cl = Topology.clos sim ~spines ~tors ~hosts_per_tor ~gbps:100.0 ~prop:(Time.us 1.0) in
  let env = Runner.setup ~topo:cl.Topology.t ~scheme:s.sp_scheme ~params:(std_params s) in
  (* Same-instant events run in post order, so the order below is part of
     the result: a trace run posts its watchers before its flows; a stream
     run injects its first windows before its window ticker starts. *)
  let measure_from, until, budget, buffers, active, flows, start =
    match s.sp_workload with
    | Trace ->
      let dur = std_duration s in
      let flows = gen_flows s ~cl ~dur in
      let buffers = Metrics.watch_buffers env ~period:(Time.us 5.0) in
      let active =
        if s.sp_track_active then Some (Metrics.watch_active_flows env ~period:(Time.us 10.0))
        else None
      in
      (dur / 10, dur, 8 * dur, buffers, active, flows, fun () -> Runner.inject env flows)
    | Stream n ->
      let horizon, start = stream_flows s env ~hosts:cl.Topology.cl_hosts ~n in
      (0, horizon, 50 * Runner.base_rtt env, Sample.create (), None, [], start)
  in
  let on_complete f = Runner.iter_hosts env (fun h -> Bfc_transport.Host.add_on_complete h f) in
  let sketches =
    Option.map
      (fun st -> Metrics.sketches_create ~alpha:st.alpha ~since:measure_from ())
      s.sp_stream
  in
  Option.iter (fun sk -> on_complete (Metrics.sketches_observe env sk)) sketches;
  let flowlog =
    match s.sp_stream with
    | Some { flowlog = Some path; _ } ->
      let oc = open_out_bin path in
      let w = Bfc_obs.Flowlog.Writer.create oc in
      on_complete (fun f -> Bfc_obs.Flowlog.Writer.append w (flow_record env f));
      Some (oc, w)
    | _ -> None
  in
  (* an exact stream run keeps its completed flows: nothing else holds them *)
  let kept = ref [] in
  (match (s.sp_workload, sketches) with
  | Stream _, None -> on_complete (fun f -> kept := f :: !kept)
  | _ -> ());
  (match (s.sp_stream, sketches) with
  | Some { progress = true; _ }, Some sk ->
    Telemetry.progress_reporter ~sketch_buckets:(fun () -> Metrics.sketches_buckets sk) env stderr
  | _ -> ());
  s.sp_obs env;
  start ();
  Runner.run env ~until;
  Runner.drain env ~budget;
  Option.iter
    (fun (oc, w) ->
      Bfc_obs.Flowlog.Writer.close w;
      close_out oc)
    flowlog;
  let flows = match s.sp_workload with Trace -> flows | Stream _ -> List.rev !kept in
  { env; flows; buffers; active; measure_from; sketches }

(* ------------------------------------------------------------------ *)
(* Sweep points: experiments describe themselves as an explicit list of
   independent (key, thunk) pairs instead of an internal loop, so the
   domain pool can run them concurrently. Results come back in point
   order, so tables are byte-identical at any job count. *)

type 'a sweep_point = { pt_key : string; pt_run : unit -> 'a }

let pt pt_key pt_run = { pt_key; pt_run }

let sweep points = Pool.run (List.map (fun p -> p.pt_run) points)

let fct_rows r =
  (* streaming runs report from the sketches (counts exact, percentiles
     within the configured relative-error bound); exact runs from the
     retained per-flow samples *)
  let stats =
    match r.sketches with
    | Some sk -> Metrics.fct_table_of_sketches sk
    | None -> Metrics.fct_table r.env ~since:r.measure_from r.flows
  in
  List.filter_map
    (fun (s : Metrics.fct_stats) ->
      if s.Metrics.count = 0 then None
      else
        Some
          [
            s.Metrics.bucket;
            string_of_int s.Metrics.count;
            cell s.Metrics.avg;
            cell s.Metrics.p50;
            cell s.Metrics.p95;
            cell s.Metrics.p99;
          ])
    stats

let buffer_p99 r = if Sample.is_empty r.buffers then 0.0 else Sample.percentile r.buffers 99.0

(* ------------------------------------------------------------------ *)
(* The million-flow churn run as perfbench's [flow_churn] and [bfc_sim
   stream] call it: a stream workload on the quick Clos at 30% load,
   with a 20 us peak-heap sampler, reported as a [stream_report]. *)

type stream_report = {
  sr_streaming : bool;
  sr_injected : int;
  sr_completed : int;
  sr_events : int;
  sr_elapsed_s : float;
  sr_peak_heap_words : int; (* running max of Gc heap_words during the run *)
  sr_overall : Metrics.fct_stats;
  sr_table : Metrics.fct_stats list;
  sr_sketches : Metrics.fct_sketches option;
}

let run_stream ?(scheme = Scheme.bfc) ?(seed = 7) ?(alpha = 0.01) ?flowlog ?(progress = false)
    ~streaming ~flows () =
  let wall0 = Bfc_util.Clock.now_s () in
  let peak = ref 0 in
  let sample () = peak := Int.max !peak (Gc.quick_stat ()).Gc.heap_words in
  let sampler env =
    sample ();
    ignore (Sim.every (Runner.sim env) ~period:(Time.us 20.0) sample)
  in
  let stream = if streaming then Some { alpha; flowlog; progress } else None in
  let r =
    run_std
      { (std Quick scheme) with
        sp_workload = Stream flows; sp_load = 0.3; sp_dist = Dist.google; sp_seed = seed;
        sp_stream = stream; sp_obs = sampler }
  in
  sample ();
  let env = r.env in
  let overall, table =
    match r.sketches with
    | Some sk -> (Metrics.fct_overall_of_sketches sk, Metrics.fct_table_of_sketches sk)
    | None -> (Metrics.fct_overall env r.flows, Metrics.fct_table env r.flows)
  in
  { sr_streaming = streaming; sr_injected = Runner.injected env;
    sr_completed = Runner.completed env; sr_events = Runner.events_executed env;
    sr_elapsed_s = Bfc_util.Clock.elapsed_s ~since:wall0; sr_peak_heap_words = !peak;
    sr_overall = overall; sr_table = table; sr_sketches = r.sketches }
