(** Runtime invariant auditor for the BFC dataplane.

    Attaches to a {!Bfc_sim.Runner.env} as a consumer of the sim's
    {!Bfc_engine.Tap} and re-checks conservation invariants every 5 us of
    simulated time:

    - {b queue-chain}: every switch queue's linked chain of packets is
      well formed ({!Bfc_switch.Fifo.chain_fault}); a switch with a broken
      chain gets none of the checks below in that sweep, since they walk
      its queues;
    - {b buffer-bytes} / {b egress-bytes}: the shared-buffer byte account
      and each per-egress byte count equal the sum of actual queue
      occupancies;
    - {b packet-conservation}: per switch, packets enqueued = dequeued +
      flushed (reboots) + resident — drops reported on the tap are
      excluded on both sides, so the identity holds across switch reboots
      without resynchronisation;
    - {b pause-balance}: the sum of all BFC pause counters equals the
      number of resident packets that were counted into them (found by
      walking the switch's queues);
    - {b flow-ledger}: per egress, the flow table's sizes sum to the
      number of resident data packets its enqueue side counted (sampled
      and not bypassed to the incast queue);
    - {b orphaned-pause}: no queue stays paused longer than 2 ms while
      its downstream pause counter is zero (a lost Resume — what the
      pause watchdog repairs);
    - {b pause-pairing} (optional): every Resume arriving at a node pairs
      with a prior Pause for the same (port, queue), and no Pause repeats
      while one is outstanding; bitmap refreshes are idempotent. Disable
      with [check_pairing = false] when injecting control-frame loss, which
      legitimately breaks strict pairing (the watchdog, not the frame
      stream, restores liveness);
    - {b flow-conservation}: completed flows never exceed injected flows.

    A failed check records a {!violation}; with [fail_fast] (the default)
    it also raises {!Audit_violation}, aborting the run at the exact
    simulated time the inconsistency was observed. *)

type violation = {
  v_at : Bfc_engine.Time.t;
  v_node : int;  (** switch/host node id, or -1 for network-wide checks *)
  v_invariant : string;
  v_detail : string;
}

exception Audit_violation of violation

type config = {
  check_pairing : bool;
  fail_fast : bool;  (** raise on first violation *)
}

type t

val attach : ?config:config -> Bfc_sim.Runner.env -> t
(** Register on the tap and schedule the periodic sweep. Attach after
    {!Bfc_sim.Runner.setup}. [config] defaults to pairing on, fail-fast
    on. *)

val check : t -> unit
(** Run one audit sweep immediately (also called by the periodic timer). *)

val violations : t -> violation list
(** All recorded violations, oldest first. *)

val violation_count : t -> int

val checks_run : t -> int
(** Number of audit sweeps performed. *)

val to_string : violation -> string
