(** Time-series recorder: periodic snapshots of a registry's gauges.

    The column set is frozen at {!create} (gauges registered later are not
    recorded), so the CSV column order is stable for a given wiring order.
    Driving the sampling clock is the caller's job — the simulator owns
    time, this module owns storage — so call {!sample} from a ticker. *)

type t

val create : Registry.t -> t
(** Snapshot the registry's current gauge list as the column set: ["t_ns"]
    followed by the gauge names, in registration order. *)

val sample : t -> now:int -> unit
(** Evaluate every column gauge at simulated time [now] (ns) and append a
    row. *)

val n_samples : t -> int
(** Rows recorded. *)

val to_csv : t -> out_channel -> unit
(** Header row then one line per sample. *)
