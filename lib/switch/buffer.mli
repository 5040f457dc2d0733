(** Shared-buffer memory model (the "standard shared buffer memory model
    implemented in existing switches", §6.2.1).

    All egress queues of a switch draw from one byte pool of [total] bytes.
    Admission uses the classic dynamic-threshold rule: a packet is accepted
    iff its target queue holds fewer than [alpha x free] bytes and the pool
    is not exhausted. Per-ingress byte counts support PFC thresholds. *)

type t

(** [total = max_int] means infinite buffering (Ideal-FQ). *)
val create : total:int -> alpha:float -> n_ingress:int -> t

val used : t -> int

val free : t -> int

(** Would a [size]-byte packet be admitted to a queue currently holding
    [queue_bytes]? *)
val admit : t -> queue_bytes:int -> size:int -> bool

val on_enqueue : t -> in_port:int -> size:int -> unit

val on_dequeue : t -> in_port:int -> size:int -> unit

val ingress_used : t -> int -> int

(** Zero all accounting (total and per-ingress). Only meaningful together
    with flushing the queues that were counted (switch reboot). *)
val reset : t -> unit
