(** Telemetry registry: named counters and gauges.

    Probes resolve to preallocated slots at registration time and carry an
    integer handle, so hot-path updates are a bounds-checked array store —
    no allocation, no hashing, no string work.

    Registration is idempotent: asking for an existing name returns the
    same handle (so independent subsystems can share a probe). All
    enumeration functions return entries in registration order, which keeps
    exported column orders stable across runs. *)

type t

type counter
(** Handle to a monotonically increasing integer slot. *)

val create : unit -> t
(** A fresh, empty registry. *)

(** {1 Counters} *)

val counter : t -> string -> counter
(** Register (or look up) a counter by name. *)

val incr : t -> counter -> unit
(** Add one. *)

val add : t -> counter -> int -> unit
(** Add an arbitrary delta. *)

(** {1 Gauges} *)

val gauge : t -> string -> (unit -> float) -> unit
(** Register a sampled gauge: the closure is evaluated only when the
    registry is read (series ticks, exports), never on the hot path.
    Re-registering a name replaces its closure. *)

val gauges : t -> (string * (unit -> float)) list
(** All gauges, registration order (closures unevaluated). *)

(** {1 Export} *)

val to_json : t -> string
(** The whole registry as a JSON object: counters and sampled gauges;
    key order is registration order. *)
