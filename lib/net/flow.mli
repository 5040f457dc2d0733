(** A flow: one unidirectional message of [size] bytes from [src] to [dst].

    Flows are the unit the paper's mechanisms act on (the FID is the
    five-tuple; here the integer [id] stands in for its hash). Completion is
    recorded by the receiver when the last byte arrives. *)

type t = {
  id : int;
  src : int; (** source host node id *)
  dst : int; (** destination host node id *)
  size : int; (** bytes *)
  arrival : Bfc_engine.Time.t;
  prio_class : int; (** traffic class (Fig. 20); 0 = highest *)
  is_incast : bool;
  mutable delivered : int; (** contiguous bytes received *)
  mutable finish : Bfc_engine.Time.t; (** -1 until complete *)
  mutable first_byte : Bfc_engine.Time.t; (** -1 until first data arrives *)
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

(** Deterministic 30-bit hash of the flow id (stands in for hash(FID)). *)
val hash : t -> int
