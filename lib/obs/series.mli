(** Time-series recorder: periodic snapshots of a registry's gauges.

    The column set is frozen at {!create} (gauges registered later are not
    recorded), so the CSV column order is stable for a given wiring order.
    Driving the sampling clock is the caller's job — the simulator owns
    time, this module owns storage — so call {!sample} from a ticker. *)

type t

val create : ?sink:out_channel -> Registry.t -> t
(** Snapshot the registry's current gauge list as the column set. With
    [?sink], the series streams: the CSV header is written immediately and
    every {!sample} writes its row straight to the channel instead of
    retaining it, so memory stays O(columns) for arbitrarily long runs
    ({!rows} then returns [[]] and {!to_csv} re-emits only the header).
    The caller owns the channel. *)

(* observation: tests read the column names; bfc-lint: allow DC001 *)
val columns : t -> string list
(** ["t_ns"] followed by the gauge names, in registration order. *)

val sample : t -> now:int -> unit
(** Evaluate every column gauge at simulated time [now] (ns) and append a
    row — to memory, or directly to the sink in streaming mode. No-op
    (records nothing) when the registry is disabled. *)

val n_samples : t -> int
(** Total rows recorded, whether retained or streamed to the sink. *)

(* observation: tests read the retained rows; bfc-lint: allow DC001 *)
val rows : t -> (int * float array) list
(** (t_ns, values) in sample order; values align with [columns] minus the
    leading time column. Streamed rows are not retained, so this is [[]]
    in streaming mode. *)

val to_csv : t -> out_channel -> unit
(** Header row then one line per sample. *)
