(** Unified telemetry for a running experiment.

    [attach] wires a {!Bfc_obs.Registry} (counters + gauges), an optional
    packet-lifecycle {!Bfc_obs.Trace} and an optional gauge time series
    onto a {!Runner.env}, as consumers of the sim's {!Bfc_engine.Tap}:

    - switch events feed enqueue/dequeue/drop/ECN-mark counters, a
      ["queued"] span per dequeued packet (residency from enqueue to
      dequeue, one Perfetto track per (egress, queue)), a ["paused"] span
      per queue pause/resume transition, and drop instants;
    - host NICs record ctrl-frame pause/resume instants and counters;
    - switch ports feed a transmitted-packet counter;
    - gauges sample buffer occupancy, paused-queue counts, NIC backlog,
      in-flight/completed flows, packet-pool and event-engine statistics.

    Everything honours the registry's enabled flag: attach with
    [t_enabled = false] and every probe collapses to a single-branch no-op
    (the trace and series are not even created), preserving the
    zero-allocation hot path. *)

type config = {
  t_enabled : bool;
  t_trace : bool; (** record the packet-lifecycle trace *)
  t_trace_capacity : int; (** ring capacity; [<= 0] = unbounded *)
  t_series_period : Bfc_engine.Time.t option;
      (** gauge sampling period; [None] disables the time series *)
}

(** Enabled, tracing, unbounded, sampling every 10 us. *)
val default_config : config

type t

(** Call after {!Runner.setup}, before injecting flows. *)
val attach : ?config:config -> Runner.env -> t

val registry : t -> Bfc_obs.Registry.t

(** The lifecycle trace, when configured. *)
val trace : t -> Bfc_obs.Trace.t option

(** The gauge time series, when configured. *)
val series : t -> Bfc_obs.Series.t option

(** Chrome trace-event JSON with process names ("switch N" / "host N") and
    per-(egress, queue) track names resolved from the environment. Opens in
    ui.perfetto.dev. No-op when tracing is off. *)
val write_trace : t -> out_channel -> unit

(** JSONL sink for the same records. No-op when tracing is off. *)
val write_jsonl : t -> out_channel -> unit

(** Gauge time series as CSV. No-op when the series is off. *)
val write_series : t -> out_channel -> unit

(** Registry snapshot (counters, gauges, histograms) as JSON. *)
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
