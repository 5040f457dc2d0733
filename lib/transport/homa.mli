(** Homa (Montazeri et al., SIGCOMM 2018), reimplemented for App. A.2.

    Receiver-driven: the first [rtt_bytes] of a message are unscheduled,
    sent at line rate at a priority chosen from the workload's flow-size
    distribution (smaller messages get higher priority, cutoffs equalizing
    unscheduled bytes per level); the rest is scheduled by receiver grants
    with SRPT order and an overcommitment degree equal to the number of
    scheduled priorities. Switches serve strict priority queues; packet
    spraying is optional (Homa assumes it; Homa-ECMP is the ablation). *)

type params = {
  total_prios : int; (** physical priority levels (queues per port) *)
  unsched_prios : int;
  overcommit : int; (** concurrently granted messages per receiver *)
  rtt_bytes : int;
  cutoffs : int array;
      (** flow-size boundaries between unscheduled priorities (ascending,
          length unsched_prios - 1) *)
}

(** Derive parameters from the workload (cutoffs by equal unscheduled-byte
    mass, split of priority levels by unscheduled/scheduled byte ratio). *)
val params_for :
  dist:Bfc_workload.Dist.t -> total_prios:int -> rtt_bytes:int -> params

(** Priority level for a message's unscheduled bytes (0 = highest). *)
val unsched_prio : params -> size:int -> int

type grant = { g_flow : Bfc_net.Flow.t; g_offset : int; g_prio : int }

module Receiver : sig
  (** Per-receiving-host grant scheduler. *)
  type t

  val create : params -> t

  (** Data for [flow] arrived ([covered] = bytes received so far). Returns
      the grants to emit now (possibly for other messages). *)
  val on_data : t -> flow:Bfc_net.Flow.t -> covered:int -> grant list

  (** Number of messages currently being scheduled (diagnostics). *)
  (* observation: tests read the receiver's active messages; bfc-lint: allow DC001 *)
  val active : t -> int
end
