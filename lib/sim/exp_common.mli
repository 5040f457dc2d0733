(** Shared scaffolding for the paper-reproduction experiments.

    Profiles pick the scale: [Smoke] for tests (seconds), [Quick] for the
    default bench run (a half-scale Clos, short traces — the shape of every
    result is preserved), [Paper] for the full §6.2.1 configuration. *)

type profile = Smoke | Quick | Paper

val profile_of_string : string -> profile

type table = { title : string; header : string list; rows : string list list }

val print_table : table -> unit

(** Write a table as CSV (header row first, title as a # comment). *)
val write_csv : table -> path:string -> unit

val cell : float -> string

(** Clos scale for a profile: (spines, tors, hosts_per_tor). *)
val clos_scale : profile -> int * int * int

(** Trace duration for a profile, scaled by the workload's mean flow size
    so every run completes a comparable flow count. *)
val duration : profile -> dist:Bfc_workload.Dist.t -> Bfc_engine.Time.t

type incast_mix = {
  degree : int;
  agg_frac_of_paper : float; (** aggregate size relative to 20 MB at paper scale *)
}

val default_incast : incast_mix

(** Settings of a streaming run: FCT stats flow through mergeable
    quantile sketches ([alpha] relative error), [flowlog] receives every
    completed flow as a binary {!Bfc_obs.Flowlog} record in completion
    order, and [progress] prints a live one-line report per sim-ms to
    stderr. *)
type stream = { alpha : float; flowlog : string option; progress : bool }

(** What a run injects. [Trace] is the profile's CDF trace (§6.2.1),
    generated whole, watched by a 5 us buffer sampler (and a 10 us
    active-flow sampler with [sp_track_active]), run for the trace
    duration and drained. [Stream n] is [n] single-MTU flows between
    random host pairs at [sp_load] of the hosts' line rate, generated two
    50 us windows ahead of the clock; it measures from 0, runs to the last
    arrival, drains for 50 base RTTs and ignores [sp_incast],
    [sp_locality] and [sp_dur_mult]. *)
type workload = Trace | Stream of int

(** One standard Clos experiment (the Fig. 9/10/11 machinery). *)
type std_setup = {
  sp_profile : profile;
  sp_scheme : Scheme.t;
  sp_workload : workload;
  sp_dist : Bfc_workload.Dist.t;
  sp_load : float;
  sp_incast : incast_mix option;
  sp_classes : int;
  sp_locality : float option; (** rack-local probability (Fig. 22) *)
  sp_track_active : bool;
  sp_seed : int;
  sp_dur_mult : float;
      (** scales the trace duration (high-load sweeps need longer traces to
          reach steady state) *)
  sp_stream : stream option;
      (** [None] is an exact run: every flow record and slowdown sample is
          kept. [Some] streams (sets [Runner.streaming]). *)
  sp_params : Runner.params -> Runner.params; (** final tweak *)
  sp_obs : Runner.env -> unit;
      (** observability wiring, run after setup and metric watchers but
          before flows are injected (attach {!Telemetry}/{!Tracer} here) *)
}

(** An exact [Trace] run: fb_hadoop at 0.6 load, seed 1. *)
val std : profile -> Scheme.t -> std_setup

type std_result = {
  env : Runner.env;
  flows : Bfc_net.Flow.t list;
      (** a [Trace] run's whole trace; an exact [Stream] run's completed
          flows in completion order; [[]] on a streaming [Stream] run *)
  buffers : Bfc_util.Stats.Sample.t;
  active : Bfc_util.Stats.Sample.t option;
  measure_from : Bfc_engine.Time.t; (** warmup cutoff for FCT stats *)
  sketches : Metrics.fct_sketches option;
      (** present iff the run streamed; {!fct_rows} then reports from the
          sketches. *)
}

(** Execute a run: build the Clos, set up the scheme, attach the
    workload's watchers, the streaming observers and [sp_obs], inject the
    workload, run it and drain. Every Clos experiment, [bfc_sim sweep]
    and [bfc_sim stream] go through here. *)
val run_std : std_setup -> std_result

(** One independent unit of an experiment sweep: a label and a thunk that
    builds its own [Sim.t]/[Runner.env] from scratch (no state shared with
    any other point, so points can run on separate domains). *)
type 'a sweep_point = { pt_key : string; pt_run : unit -> 'a }

val pt : string -> (unit -> 'a) -> 'a sweep_point

(** Run the points on the domain pool ({!Pool.run}; sequential at
    [jobs = 1]). Results are returned in point order regardless of the job
    count, so downstream tables are byte-identical. *)
val sweep : 'a sweep_point list -> 'a list

(** Rows of per-bucket slowdown stats for one run, prefixed by the scheme
    name: bucket, n, avg, p50, p95, p99. *)
val fct_rows : std_result -> string list list

(** p99 (bytes) of the buffer occupancy samples. *)
val buffer_p99 : std_result -> float

(** {2 Memory-scale churn run}

    The adapter that perfbench's [flow_churn] workload and [bfc_sim
    stream] call: {!run_std} on a [Stream flows] workload over the Quick
    Clos at 0.3 load, with a 20 sim-us peak-heap sampler attached through
    [sp_obs]. [streaming:false] is the exact run (the memory baseline of
    CI's streaming gate); [alpha], [flowlog] and [progress] are the
    streaming settings and an exact run ignores them. *)

type stream_report = {
  sr_streaming : bool;
  sr_injected : int;
  sr_completed : int;
  sr_events : int;
  sr_elapsed_s : float; (** wall-clock seconds for the whole run *)
  sr_peak_heap_words : int;
      (** running max of [Gc.heap_words], sampled every 20 sim-us *)
  sr_overall : Metrics.fct_stats;
  sr_table : Metrics.fct_stats list;
  sr_sketches : Metrics.fct_sketches option;
}

val run_stream :
  ?scheme:Scheme.t ->
  ?seed:int ->
  ?alpha:float ->
  ?flowlog:string ->
  ?progress:bool ->
  streaming:bool ->
  flows:int ->
  unit ->
  stream_report
