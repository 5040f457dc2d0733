(** The BFC dataplane program (§3.3), attached to a {!Bfc_switch.Switch}.

    Responsibilities, exactly following the paper's pseudocode:

    - {b Enqueue} (ingress pipeline): look up ⟨egress, hash(FID)⟩ in the
      flow table; (re)assign a physical queue if the entry has no packets in
      the switch and the sticky threshold (2 HRTT) has expired; bump
      [size]; if the assigned queue's occupancy exceeds Th = HRTT·µ/N_active,
      mark the packet and increment pauseCounter⟨ingress, upstreamQ⟩,
      emitting a Pause on the 0→1 edge.
    - {b Dequeue} (modelled recirculation): decrement [size]; if the packet
      was marked, decrement the pause counter, emitting a Resume on the
      1→0 edge; stamp our local queue id into the packet's [upstreamQ];
      update the empty-queue bitmap.
    - {b Reacting side}: Pause/Resume/Pause-bitmap control packets arriving
      on port [i] pause/resume queues of egress [i] (the reverse direction
      of the same link).

    The last queue of every port is reserved for end-to-end control traffic
    (ACKs, NACKs, grants), standing in for the high-priority control queue
    the paper reserves; data queues are [0, queues_per_port - 1). *)

type config = {
  assignment : Dqa.policy;
  table_mult : int; (** flow-table slots per port = mult x queues (paper: 100) *)
  sticky_hrtt_mult : float; (** sticky threshold in HRTTs (paper: 2) *)
  th_factor : float; (** scales Th; 1.0 = paper *)
  fixed_th : int option; (** fixed threshold in bytes (Fig. 7 sweeps) *)
  sampling : float; (** fraction of packets bookkept (App. A.8); 1.0 = all *)
  incast_label : bool; (** App. A.7: incast-labelled flows share queue 0 *)
  bitmap_period : Bfc_engine.Time.t option; (** periodic idempotent refresh *)
  max_upstream_q : int; (** pause-counter width (>= peers' queue counts) *)
  seed : int;
}

val default_config : config

type t

(** Statistics for tests and benches. *)
type stats = {
  mutable pauses_sent : int;
  mutable resumes_sent : int;
  mutable packets_counted : int; (** enqueues that exceeded Th *)
  mutable queue_collisions : int;
      (** data enqueues whose flow shared its queue with another active
          flow-table entry (diagnostic for Fig. 27) *)
  mutable assignments : int; (** fresh queue assignments *)
  mutable random_assignments : int; (** assignments with no empty queue *)
}

(** [attach sw config] installs BFC on the switch (overwrites hooks). *)
val attach : Bfc_switch.Switch.t -> config -> t

(** [allow_backpressure t f] installs the deadlock-prevention match-action
    filter (App. B): packets for which [f ~in_port ~egress] is false skip
    pause accounting. *)
val allow_backpressure : t -> (in_port:int -> egress:int -> bool) -> unit

val stats : t -> stats

val config : t -> config

val switch : t -> Bfc_switch.Switch.t

(** Current pause threshold for an egress (bytes). *)
(* observation: tests read the live pause threshold; bfc-lint: allow DC001 *)
val threshold : t -> egress:int -> int

(** Pause counters (for invariant checks in tests). *)
val pause_counters : t -> Pause_counter.t

val flow_table : t -> Flow_table.t

(** The reacting side used by host NICs as well: given a control packet
    that arrived on [port], apply it through the queue-pause setter
    [set_paused st ~port ~queue paused]; a bitmap's payload is read from
    [pool]. The setter takes its device as an argument, so a caller passes
    a closed function and no closure is built per frame. Exposed for the
    NIC implementation. *)
val apply_ctrl :
  set_paused:('a -> port:int -> queue:int -> bool -> unit) ->
  'a ->
  pool:Bfc_net.Packet.Pool.t ->
  port:int ->
  n_queues:int ->
  Bfc_net.Packet.t ->
  unit

(** Wipe flow table, pause counters, DQA bitmaps and occupancy diagnostics;
    call together with {!Bfc_switch.Switch.reboot} so the dataplane state
    matches the flushed switch. *)
val reset : t -> unit
