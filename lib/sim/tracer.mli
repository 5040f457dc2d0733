(** Network-wide control-plane tracing.

    Records, from the sim's {!Bfc_engine.Tap}, every Pause / Resume /
    pause-bitmap / PFC / hop-credit control frame arriving at a switch or
    host, switch drops, watchdog fires and reboots, and the fault
    injector's link state changes, with timestamps — the observable
    control actions of the backpressure machinery. Useful for debugging
    pause storms, verifying pause/resume pairing, and producing
    timelines. *)

type t

(** [attach env ~capacity] starts recording (ring buffer of [capacity]
    events; oldest dropped first). Call after [Runner.setup], before
    running. *)
val attach : Runner.env -> capacity:int -> t

(** Pauses and resumes received per node, as (node, pauses, resumes). *)
val pause_balance : t -> (int * int * int) list

(** Render a human-readable timeline of up to [limit] events, oldest
    first. *)
val render : ?limit:int -> t -> string

(** The underlying trace ring (pid = node id, instants only). Export it
    with {!Bfc_obs.Trace.to_chrome} for a Perfetto view of the control
    plane; {!Bfc_obs.Trace.recorded} counts every event observed,
    including those that fell off the ring. *)
val trace : t -> Bfc_obs.Trace.t
