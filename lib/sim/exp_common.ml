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

(* ------------------------------------------------------------------ *)
(* Ambient streaming-observability settings: the CLI sets them once at
   startup, before any experiment runs; standard runs consult them when
   building params. *)

type stream_settings = { ss_alpha : float; ss_flowlog : string option; ss_progress : bool }

let stream_settings = ref None

let set_streaming ?(alpha = 0.01) ?flowlog ?(progress = false) enabled =
  stream_settings :=
    if enabled then Some { ss_alpha = alpha; ss_flowlog = flowlog; ss_progress = progress }
    else None

let streaming_on () = Option.is_some !stream_settings

let stream_alpha () =
  match !stream_settings with
  | Some ss -> ss.ss_alpha
  | None -> 0.01

type std_setup = {
  sp_profile : profile;
  sp_scheme : Scheme.t;
  sp_dist : Dist.t;
  sp_load : float;
  sp_incast : incast_mix option;
  sp_classes : int;
  sp_locality : float option;
  sp_track_active : bool;
  sp_seed : int;
  sp_dur_mult : float;
  sp_params : Runner.params -> Runner.params;
  sp_obs : Runner.env -> unit;
}

let std profile scheme =
  {
    sp_profile = profile;
    sp_scheme = scheme;
    sp_dist = Dist.fb_hadoop;
    sp_load = 0.6;
    sp_incast = None;
    sp_classes = 1;
    sp_locality = None;
    sp_track_active = false;
    sp_seed = 1;
    sp_dur_mult = 1.0;
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
      streaming = streaming_on ();
    }

(* Chain sketch observation onto every host's completion callback (after
   the runner's own completion counter). *)
let attach_sketches env ~since =
  let sk = Metrics.sketches_create ~alpha:(stream_alpha ()) ~since () in
  Runner.iter_hosts env (fun h ->
      Bfc_transport.Host.add_on_complete h (fun f -> Metrics.sketches_observe env sk f));
  sk

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

(* Post-run flowlog dump for standard runs: completed flows in generation
   order. The writer is chunked, so even a huge flow list streams through
   a bounded serialisation buffer. *)
let write_flowlog_file env flows ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let w = Bfc_obs.Flowlog.Writer.create oc in
      List.iter (fun f -> if Bfc_net.Flow.complete f then
                    Bfc_obs.Flowlog.Writer.append w (flow_record env f)) flows;
      Bfc_obs.Flowlog.Writer.close w)

let maybe_write_flowlog env flows =
  match !stream_settings with
  | Some { ss_flowlog = Some path; _ } -> write_flowlog_file env flows ~path
  | _ -> ()

let maybe_progress env =
  match !stream_settings with
  | Some { ss_progress = true; _ } -> Telemetry.progress_reporter env stderr
  | _ -> ()

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

let run_std s =
  let sim = Sim.create () in
  let spines, tors, hosts_per_tor = clos_scale s.sp_profile in
  let cl = Topology.clos sim ~spines ~tors ~hosts_per_tor ~gbps:100.0 ~prop:(Time.us 1.0) in
  let params = std_params s in
  let env = Runner.setup ~topo:cl.Topology.t ~scheme:s.sp_scheme ~params in
  let dur = std_duration s in
  let measure_from = dur / 10 in
  let flows = gen_flows s ~cl ~dur in
  let buffers = Metrics.watch_buffers env ~period:(Time.us 5.0) in
  let active =
    if s.sp_track_active then Some (Metrics.watch_active_flows env ~period:(Time.us 10.0))
    else None
  in
  let sketches =
    if params.Runner.streaming then Some (attach_sketches env ~since:measure_from) else None
  in
  if params.Runner.streaming then maybe_progress env;
  s.sp_obs env;
  Runner.inject env flows;
  Runner.run env ~until:dur;
  Runner.drain env ~budget:(8 * dur);
  if params.Runner.streaming then maybe_write_flowlog env flows;
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
(* Memory-scale streaming driver: millions of tiny flows through a Quick
   Clos, generated in sliding windows (never materialising the full flow
   list), with completions feeding sketches / the flowlog and per-flow
   transport state reclaimed after a grace period — so resident memory
   tracks flows in flight, not flows ever run. The [streaming:false] mode
   retains everything the standard path would (the flow records and their
   exact slowdown samples), giving the memory baseline the BENCH block and
   CI gate compare against. *)

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

let run_stream ?(scheme = Scheme.Bfc Scheme.bfc_default) ?(seed = 7) ?(alpha = 0.01) ?flowlog
    ?(progress = false) ~streaming ~flows:n_flows () =
  if n_flows <= 0 then invalid_arg "Exp_common.run_stream: flows must be positive";
  let wall0 = Bfc_util.Clock.now_s () in
  let sim = Sim.create () in
  let cl = Topology.clos sim ~spines:4 ~tors:4 ~hosts_per_tor:8 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let params = { Runner.default_params with seed; streaming } in
  let env = Runner.setup ~topo:cl.Topology.t ~scheme ~params in
  let hosts = cl.Topology.cl_hosts in
  let n_hosts = Array.length hosts in
  let size = params.Runner.mtu in
  (* single-MTU flows at ~30% aggregate host load: flows per ns *)
  let load = 0.3 in
  let bytes_per_ns = float_of_int n_hosts *. 12.5 *. load in
  let delta_ns = float_of_int size /. bytes_per_ns in
  let arrival_of k = 1 + int_of_float (float_of_int k *. delta_ns) in
  let horizon = arrival_of n_flows + 1 in
  let rng = Bfc_util.Rng.create seed in
  let next = ref 0 in
  (* generate and inject every flow arriving before [t_end]; called from a
     window ticker, so at most a window's worth of new records exists at a
     time and completed ones are garbage as soon as their grace passes *)
  let gen_until t_end =
    let batch = ref [] in
    while !next < n_flows && arrival_of !next < t_end do
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
  gen_until (2 * window);
  ignore (Sim.every sim ~period:window (fun () -> gen_until (Sim.now sim + (2 * window))));
  let sketches = if streaming then Some (Metrics.sketches_create ~alpha ~since:0 ()) else None in
  let kept = ref [] in
  let flog =
    Option.map
      (fun path ->
        let oc = open_out_bin path in
        (oc, Bfc_obs.Flowlog.Writer.create oc))
      flowlog
  in
  let grace = 4 * Runner.base_rtt env in
  Runner.iter_hosts env (fun h ->
      Bfc_transport.Host.add_on_complete h (fun f ->
          (match sketches with
          | Some sk -> Metrics.sketches_observe env sk f
          | None -> kept := f :: !kept);
          (match flog with
          | Some (_, w) -> Bfc_obs.Flowlog.Writer.append w (flow_record env f)
          | None -> ());
          if streaming then
            Bfc_transport.Host.reclaim_after
              (Runner.host env f.Bfc_net.Flow.src)
              ~peer:(Runner.host env f.Bfc_net.Flow.dst) ~flow_id:f.Bfc_net.Flow.id ~delay:grace));
  let peak = ref (Gc.quick_stat ()).Gc.heap_words in
  ignore
    (Sim.every sim ~period:(Time.us 20.0) (fun () ->
         let hw = (Gc.quick_stat ()).Gc.heap_words in
         if hw > !peak then peak := hw));
  if progress then
    Telemetry.progress_reporter
      ?sketch_buckets:(Option.map (fun sk () -> Metrics.sketches_buckets sk) sketches)
      env stderr;
  Runner.run env ~until:horizon;
  Runner.drain env ~budget:(50 * Runner.base_rtt env);
  (match flog with
  | Some (oc, w) ->
    Bfc_obs.Flowlog.Writer.close w;
    close_out_noerr oc
  | None -> ());
  let hw = (Gc.quick_stat ()).Gc.heap_words in
  if hw > !peak then peak := hw;
  let overall, table =
    match sketches with
    | Some sk -> (Metrics.fct_overall_of_sketches sk, Metrics.fct_table_of_sketches sk)
    | None ->
      let flows = List.rev !kept in
      (Metrics.fct_overall env flows, Metrics.fct_table env flows)
  in
  {
    sr_streaming = streaming;
    sr_injected = Runner.injected env;
    sr_completed = Runner.completed env;
    sr_events = Runner.events_executed env;
    sr_elapsed_s = Bfc_util.Clock.elapsed_s ~since:wall0;
    sr_peak_heap_words = !peak;
    sr_overall = overall;
    sr_table = table;
    sr_sketches = sketches;
  }
