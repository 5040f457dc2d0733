(** Metric collection and summarization (§6.2.1 Performance metrics).

    FCT slowdown = FCT / best-possible FCT at line rate, bucketed by flow
    size the way the paper's figures are; buffer occupancy and active-flow
    counts are sampled periodically; per-packet queuing delays are captured
    via the switch's departure tap. *)

(** Flow-size buckets used across the figures. *)
val size_buckets : (string * int * int) list
(** (label, lo, hi) with hi exclusive; the last bucket is open-ended. *)

type fct_stats = {
  bucket : string;
  lo : int;
  count : int;
  avg : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

(** [fct_table env flows] — slowdown stats per size bucket over completed
    flows ([incast] selects the incast subset; default excludes incast
    flows, as the paper reports them separately). *)
val fct_table :
  Runner.env -> ?incast:bool -> ?since:Bfc_engine.Time.t -> Bfc_net.Flow.t list -> fct_stats list

(** Overall slowdown stats of an arbitrary flow subset. *)
val fct_overall :
  Runner.env -> Bfc_net.Flow.t list -> fct_stats

(** {2 Sketch-backed FCT statistics (streaming runs)}

    Completions feed mergeable quantile sketches — one overall, one per
    size bucket — so FCT stats cost O(buckets) memory however many flows
    complete, at a bounded relative error ([alpha], default 1%) on the
    percentile columns. Per-shard sketches merge exactly, so sharded and
    sequential streaming runs produce identical tables. *)

type fct_sketches

(** [since] mirrors [fct_table]'s warm-up cutoff for the per-size-bucket
    sketches (the overall sketch sees every completed flow, incast
    included, like {!fct_overall}). *)
val sketches_create : ?alpha:float -> ?since:Bfc_engine.Time.t -> unit -> fct_sketches

(** Feed one completed flow's slowdown. *)
val sketches_observe : Runner.env -> fct_sketches -> Bfc_net.Flow.t -> unit

(** Exact merge (associative, commutative) of per-shard sketches. *)
val sketches_merge : into:fct_sketches -> fct_sketches -> unit

(** Same rows as {!fct_table} / {!fct_overall}, estimated from sketches:
    counts exact, avg/percentiles within the sketches' relative-error
    bound. *)
val fct_table_of_sketches : fct_sketches -> fct_stats list

val fct_overall_of_sketches : fct_sketches -> fct_stats

(** Total nonzero buckets held across all sketches (progress reporting /
    memory accounting). *)
val sketches_buckets : fct_sketches -> int

(** The relative-error bound the sketches were created with. *)
val sketches_alpha : fct_sketches -> float

(** Concatenated canonical encodings of every sketch: equal strings iff
    the states are identical, whatever add/merge order produced them
    (the sharded-vs-sequential byte-identity check). *)
val sketches_encode : fct_sketches -> string

(** Short flows (< 3 KB) p99 slowdown; NaN if none. *)
val short_p99 : Runner.env -> ?since:Bfc_engine.Time.t -> Bfc_net.Flow.t list -> float

(** Long flows (> 3 MB... the paper uses > 3 MB; for workloads without such
    flows use the top size bucket) average slowdown; NaN if none. *)
val long_avg : Runner.env -> ?threshold:int -> ?since:Bfc_engine.Time.t -> Bfc_net.Flow.t list -> float

val median_slowdown : Runner.env -> Bfc_net.Flow.t list -> float

(** Periodic sampling of aggregate switch buffer occupancy. Returns the
    sample set (bytes, per switch per sample). *)
val watch_buffers :
  Runner.env -> period:Bfc_engine.Time.t -> Bfc_util.Stats.Sample.t

(** Periodic sampling of the active-flow count of every switch egress port
    (requires [track_active_flows]); [min_gbps] filters to fabric ports. *)
val watch_active_flows :
  Runner.env -> period:Bfc_engine.Time.t -> Bfc_util.Stats.Sample.t

(** Utilization of one directed port over a window: call [start], run, then
    [finish] returns the fraction of capacity used. *)
type util_probe

val utilization_probe : Runner.env -> gid:int -> util_probe

val utilization : util_probe -> float

(** Record the queuing delay (us) of every data packet leaving a switch
    queue for which [filter ~sw ~egress pkt] holds ([sw] = the switch's
    node id). Returns the sample. *)
val watch_queue_delay :
  Runner.env ->
  filter:(sw:int -> egress:int -> Bfc_net.Packet.t -> bool) ->
  Bfc_util.Stats.Sample.t

(** Total pause-watchdog force-resumes across every switch and host NIC. *)
val watchdog_fires : Runner.env -> int

(** Total switch reboots injected so far. *)
val reboots : Runner.env -> int

(** Jain's fairness index over per-flow average throughputs
    ((Σx)² / (n·Σx²)); 1.0 = perfectly fair. Computed over completed flows
    of at least [min_size] bytes (throughput of tiny flows is noise). *)
val jain_fairness :
  Runner.env -> min_size:int -> ?max_size:int -> Bfc_net.Flow.t list -> float
