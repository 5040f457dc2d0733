(** Packet-lifecycle trace buffer with Chrome trace-event export.

    Records instants and duration spans on (pid, tid) tracks — by
    convention pid is a node id and tid encodes (egress, queue) — into
    struct-of-array storage, so recording is a handful of int stores.
    Event names are interned once; each record carries up to two integer
    arguments whose JSON keys are fixed per name at intern time.

    A trace can be bounded ([capacity]): once full, the oldest records are
    overwritten ring-style ({!recorded} keeps counting). Unbounded traces
    grow geometrically.

    Timestamps are simulation nanoseconds; the Chrome exporter converts to
    the microseconds Perfetto expects. Any exported file opens directly in
    ui.perfetto.dev or chrome://tracing. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity <= 0] (the default) means unbounded. *)

val absent_arg : int
(** Sentinel for "no argument" ([min_int]): passing it to {!instant} or
    {!complete} is equivalent to omitting the argument. Lets callers store
    pre-encoded (name, a, b) triples without wrapping in options. *)

val intern : t -> ?akey:string -> ?bkey:string -> string -> int
(** Intern an event name, fixing the JSON keys of its two optional integer
    arguments. Re-interning the same name returns the same id (arg keys are
    kept from the first registration). *)

val instant : t -> ts:int -> name:int -> pid:int -> tid:int -> ?a:int -> ?b:int -> unit -> unit
(** A point event at [ts] ns. *)

val complete : t -> ts:int -> dur:int -> name:int -> pid:int -> tid:int -> ?a:int -> ?b:int -> unit -> unit
(** A span starting at [ts] ns lasting [dur] ns. *)

val length : t -> int
(** Records currently buffered. *)

val recorded : t -> int
(** Total records observed, including any overwritten in ring mode. *)

val iter :
  t ->
  (ts:int -> dur:int -> name:int -> pid:int -> tid:int -> a:int option -> b:int option -> unit) ->
  unit
(** Iterate buffered records oldest-first ([dur = -1] for instants). *)

val to_chrome :
  ?process_name:(pid:int -> string option) ->
  ?track_name:(pid:int -> tid:int -> string option) ->
  t ->
  out_channel ->
  unit
(** Write the Chrome trace-event JSON ({"traceEvents": [...]}) including
    process/thread-name metadata for every track that appears. Events are
    emitted in timestamp order (complete spans are recorded when they close
    but stamped with their start time), so every track is monotone. *)

val to_jsonl : t -> out_channel -> unit
(** One JSON object per record per line (stable keys: ts, dur, name, pid,
    tid, then the per-name argument keys). *)
