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

(** {2 One set-up path}

    Every simulated run, whatever its topology, is [prepare] then
    [execute]: {!run_std} for the Clos traces and streams, and the
    star, testbed, ring and cross-DC experiments directly. Each caller
    keeps its own horizon, drain budget, [Runner.params] and seeds, and
    posts its own watchers between the two calls: same-instant events run
    in post order, so watchers go in before the flows. *)

(** A topology and the record its builder returns. Links run at 100 Gbps
    (a star's at [gbps]) with a 1 us propagation delay. [Clos] is the
    profile's {!clos_scale}; [Ring] is 5 switches (App. B); [Cross_dc]
    joins its two data centers by a 200 Gbps, 200 us WAN link (App. A.9). *)
type _ shape =
  | Clos : profile -> Bfc_net.Topology.clos shape
  | Star : { senders : int; gbps : float } -> Bfc_net.Topology.star shape
  | Testbed : { g1 : int; g2 : int; g3 : int } -> Bfc_net.Topology.testbed shape
  | Ring : Bfc_net.Topology.ring shape
  | Cross_dc : { spines : int; tors : int; hosts_per_tor : int } -> Bfc_net.Topology.cross_dc shape

(** Build a shape on a fresh [Sim.t], without devices (static analysis). *)
val topology : 'a shape -> 'a * Bfc_net.Topology.t

(** Build a shape on a fresh [Sim.t] and set the scheme up on it
    ({!Runner.setup}). *)
val prepare : 'a shape -> Scheme.t -> Runner.params -> 'a * Runner.env

(** What {!execute} injects: a flow list ({!Runner.inject}), or a thunk
    that posts a stream's first arrival windows and its window ticker. *)
type injection = Flows of Bfc_net.Flow.t list | Windows of (unit -> unit)

(** [execute ?obs ?budget env ~until injection] runs [obs] (observability
    wiring; nothing by default), injects, runs to [until] and then drains
    for [budget] ({!Runner.drain}); without a [budget] it does not
    drain. *)
val execute :
  ?obs:(Runner.env -> unit) ->
  ?budget:Bfc_engine.Time.t ->
  Runner.env ->
  until:Bfc_engine.Time.t ->
  injection ->
  unit

(** The App. B cyclic workload: every host of the ring starts a [size]-byte
    flow one hop and one two hops around it at time 0, which overloads
    every ring link in a cycle. *)
val ring_flows : Bfc_net.Topology.ring -> size:int -> Bfc_net.Flow.t list

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

(** A [Trace] run's workload on [cl], [dur] long: background flows from
    [sp_dist] at [sp_load] (less 5% when [sp_incast] adds its incasts),
    seeded by [sp_seed]. A pure function of its arguments. *)
val trace_flows : std_setup -> cl:Bfc_net.Topology.clos -> dur:Bfc_engine.Time.t -> Bfc_net.Flow.t list

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

(** Execute a run: {!prepare} the profile's Clos, attach the workload's
    watchers and the streaming observers, then {!execute} with [sp_obs],
    the workload, its horizon and its drain budget. Every Clos trace
    experiment, [bfc_sim sweep] and [bfc_sim stream] go through here. *)
val run_std : std_setup -> std_result

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
