(** A flow: one unidirectional message of [size] bytes from [src] to [dst].

    Flows are the unit the paper's mechanisms act on (the FID is the
    five-tuple; here the integer [id] stands in for its hash). Completion is
    recorded by the receiver when the last byte arrives.

    Packets do not point at their flow: they carry its [id] and its
    [slot] in the sim's flow {!Table}, and an end host fetches the record
    from there. The fields are mutable because the table re-initialises a
    streaming run's records in place when it reuses them. *)

type t = {
  mutable id : int;
  mutable src : int; (** source host node id *)
  mutable dst : int; (** destination host node id *)
  mutable size : int; (** bytes *)
  mutable arrival : Bfc_engine.Time.t;
  mutable prio_class : int; (** traffic class (Fig. 20); 0 = highest *)
  mutable is_incast : bool;
  mutable delivered : int; (** contiguous bytes received *)
  mutable finish : Bfc_engine.Time.t; (** -1 until complete *)
  mutable first_byte : Bfc_engine.Time.t; (** -1 until first data arrives *)
  mutable slot : int; (** in the flow table that last took the record; -1 before *)
}

val make :
  id:int ->
  src:int ->
  dst:int ->
  size:int ->
  arrival:Bfc_engine.Time.t ->
  ?prio_class:int ->
  ?is_incast:bool ->
  unit ->
  t

val complete : t -> bool

(** Flow completion time; raises if not complete. *)
val fct : t -> Bfc_engine.Time.t

(** Deterministic 30-bit hash of a flow id (stands in for hash(FID)). *)
val hash : int -> int

(** The per-simulation flow table, one per sim beside its packet table
    ([Port.flows]). A slot names a record for as long as the table holds
    it, so a packet names its flow by (slot, id) and an end host reads the
    record as [get table slot]. A packet whose id is not the slot's
    record's id ({!holds} is false) is stale: it outlived its flow.

    The table holds two kinds of record. A caller's record ({!add}) stays
    in its slot for the run. The table's own records ({!fresh}), one per
    streaming arrival, go back to it at reclaim ({!release}), once both
    ends are done with the flow, and the next arrival re-initialises one
    in place. *)
module Table : sig
  type flow = t

  type t

  val create : unit -> t

  (** The record in a slot. *)
  val get : t -> int -> flow

  (** Does [slot] hold the record of flow [id]? *)
  val holds : t -> slot:int -> id:int -> bool

  (** [add table f] holds a caller's record for the run and returns its
      slot, which is also [f.slot]. A record the table already holds keeps
      its slot. The table never reuses it. *)
  val add : t -> flow -> int

  (** A table-owned record for a new flow, parked one re-initialised in
      place when there is one, else a fresh one. Its [prio_class] is 0 and
      it is not incast. *)
  val fresh :
    t -> id:int -> src:int -> dst:int -> size:int -> arrival:Bfc_engine.Time.t -> flow

  (** [release table ~slot ~id] parks the table-owned record of flow [id]
      for reuse. No-op for a caller's record, an already parked one, or a
      slot that holds another flow now. *)
  val release : t -> slot:int -> id:int -> unit

  (** Table-owned records in use. *)
  (* observation: tests check that a drained stream holds none; bfc-lint: allow DC001 *)
  val live : t -> int

  (** The most table-owned records in use at once. *)
  (* observation: tests bound a stream's records by it; bfc-lint: allow DC001 *)
  val high_water : t -> int
end
