(** Telemetry registry: named counters and gauges.

    Probes resolve to preallocated slots at registration time and carry an
    integer handle, so hot-path updates are a bounds-checked array store —
    no allocation, no hashing, no string work. A registry created with
    [~enabled:false] turns every update into a single-branch no-op, so
    instrumented code can stay compiled in without perturbing the
    zero-allocation event-engine hot path.

    Registration is idempotent: asking for an existing name returns the
    same handle (so independent subsystems can share a probe). All
    enumeration functions return entries in registration order, which keeps
    exported column orders stable across runs. *)

type t

type counter
(** Handle to a monotonically increasing integer slot. *)

val create : ?enabled:bool -> unit -> t
(** A fresh registry; [enabled] defaults to [true]. *)

val enabled : t -> bool

(** {1 Counters} *)

val counter : t -> string -> counter
(** Register (or look up) a counter by name. *)

val incr : t -> counter -> unit
(** Add one. No-op on a disabled registry. *)

val add : t -> counter -> int -> unit
(** Add an arbitrary delta. No-op on a disabled registry. *)

(* observation: tests read a counter; bfc-lint: allow DC001 *)
val value : t -> counter -> int

(* observation: tests read every counter; bfc-lint: allow DC001 *)
val counters : t -> (string * int) list
(** All counters, registration order. *)

(** {1 Gauges} *)

val gauge : t -> string -> (unit -> float) -> unit
(** Register a sampled gauge: the closure is evaluated only when the
    registry is read (series ticks, exports), never on the hot path.
    Re-registering a name replaces its closure. *)

val gauges : t -> (string * (unit -> float)) list
(** All gauges, registration order (closures unevaluated). *)

(* observation: tests read every gauge; bfc-lint: allow DC001 *)
val sample_gauges : t -> (string * float) list
(** Evaluate every gauge, registration order. On a disabled registry the
    closures are not called and the list is empty. *)

(** {1 Export} *)

val to_json : t -> string
(** The whole registry as a JSON object: counters and sampled gauges;
    key order is registration order. *)
