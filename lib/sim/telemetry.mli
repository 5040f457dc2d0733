(** Unified telemetry for a running experiment.

    [attach] wires a {!Bfc_obs.Registry} (counters + gauges), a
    packet-lifecycle {!Bfc_obs.Trace} and a gauge time series onto a
    {!Runner.env}, as consumers of the sim's {!Bfc_engine.Tap}:

    - switch events feed enqueue/dequeue/drop/ECN-mark counters, a
      ["queued"] span per dequeued packet (residency from enqueue to
      dequeue, one Perfetto track per (egress, queue)), a ["paused"] span
      per queue pause/resume transition, and drop instants;
    - host NICs record ctrl-frame pause/resume instants and counters;
    - switch ports feed a transmitted-packet counter;
    - gauges sample buffer occupancy, paused-queue counts, NIC backlog,
      in-flight/completed flows, packet-pool and event-engine statistics. *)

type t

(** [attach ~trace_capacity ~series_period env] — the trace ring holds
    [trace_capacity] records ([<= 0] = unbounded) and the gauges are
    sampled every [series_period]. Call after {!Runner.setup}, before
    injecting flows. *)
val attach : trace_capacity:int -> series_period:Bfc_engine.Time.t -> Runner.env -> t

(** The lifecycle trace. *)
val trace : t -> Bfc_obs.Trace.t

(** The gauge time series. *)
val series : t -> Bfc_obs.Series.t

(** Chrome trace-event JSON with process names ("switch N" / "host N") and
    per-(egress, queue) track names resolved from the environment. Opens in
    ui.perfetto.dev. *)
val write_trace : t -> out_channel -> unit

(** JSONL sink for the same records. *)
val write_jsonl : t -> out_channel -> unit

(** Gauge time series as CSV. *)
val write_series : t -> out_channel -> unit

(** Registry snapshot (counters and gauges) as JSON. *)
val counters_json : t -> string

(** Install a simulation ticker that prints a one-line progress report to
    [oc] every sim-millisecond: sim-time, events executed, wall-clock
    events/sec over the last interval, flows completed/injected, the live
    sketch bucket count, and the major-heap size in words. Flushes per
    line so the run can be tailed. *)
val progress_reporter : sketch_buckets:(unit -> int) -> Runner.env -> out_channel -> unit

(** Event-engine self-profile of the environment's simulator as JSON
    (execution counts per handle class, queue high-water mark, handle reuse
    stats). Usable without {!attach}. *)
val engine_profile_json : Runner.env -> string
