(** Network-wide control-plane tracing.

    Records, from the sim's {!Bfc_engine.Tap}, every Pause / Resume /
    pause-bitmap / PFC / hop-credit control frame arriving at a switch or
    host, switch drops, watchdog fires and reboots, and the fault
    injector's link state changes, with timestamps — the observable
    control actions of the backpressure machinery. Useful for debugging
    pause storms, verifying pause/resume pairing, and producing
    timelines. *)

type kind =
  | Pause_rx of { queue : int }
  | Resume_rx of { queue : int }
  | Bitmap_rx of { paused : int }  (** number of queues the bitmap pauses *)
  | Pfc_rx of { pause : bool }
  | Hop_credit_rx of { queue : int; bytes : int }
  | Dropped of { flow : int }
  | Watchdog_fire of { egress : int; queue : int }
      (** pause watchdog force-resume; [queue = -1] = PFC port unpause *)
  | Link_down of { gid : int }  (** fault injector took the link down *)
  | Link_up of { gid : int }
  | Rebooted of { flushed : int }  (** switch reboot; packets lost *)

type event = { at : Bfc_engine.Time.t; node : int; ev : kind }

type t

(** [attach env ~capacity] starts recording (ring buffer of [capacity]
    events; oldest dropped first). Call after [Runner.setup], before
    running. *)
val attach : Runner.env -> capacity:int -> t

(** Events in chronological order (oldest first). *)
(* observation: tests read the recorded events; bfc-lint: allow DC001 *)
val events : t -> event list

(** Total events observed (including any that fell off the ring). *)
(* observation: tests read the observed count; bfc-lint: allow DC001 *)
val observed : t -> int

(* observation: tests count events of a kind; bfc-lint: allow DC001 *)
val count : t -> pred:(event -> bool) -> int

(** Pauses and resumes received per node, as (node, pauses, resumes). *)
val pause_balance : t -> (int * int * int) list

(** Render a human-readable timeline of up to [limit] events. *)
val render : ?limit:int -> t -> string

(** The underlying trace ring (pid = node id, instants only). Export it
    with {!Bfc_obs.Trace.to_chrome} for a Perfetto view of the control
    plane. *)
val trace : t -> Bfc_obs.Trace.t
