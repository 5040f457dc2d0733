(** Work-stealing domain pool for experiment sweeps.

    Each task is an independent thunk (one simulation per task, no shared
    mutable state); the pool runs them on OCaml 5 domains and merges
    results in task order, so output is deterministic at any job count. *)

(** Set the ambient job count used when {!run} gets no [?jobs]. 1 (the
    initial value) means run inline on the calling domain. *)
val set_default_jobs : int -> unit

val default_jobs : unit -> int

(** A task raised: carries the task's index (in submission order), the
    original exception and its backtrace. When several tasks fail, the
    lowest-index failure is reported, independent of execution order. *)
exception Task_error of { index : int; exn : exn; backtrace : string }

(** [run ?jobs tasks] executes every thunk and returns their results in
    submission order. [jobs] defaults to the ambient count; it is clamped
    to the task count, and [jobs <= 1] runs inline (no domains spawned).
    Raises {!Task_error} if any task raised. *)
val run : ?jobs:int -> (unit -> 'a) list -> 'a list
