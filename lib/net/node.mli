(** A node in the topology graph: a host or a switch.

    The concrete device (switch dataplane, host transport) is attached after
    graph construction by setting [handler]; links deliver packets by
    calling it. *)

type kind = Host | Switch

type t = {
  id : int;
  kind : kind;
  mutable handler : in_port:int -> Packet.t -> unit;
}

val make : id:int -> kind:kind -> name:string -> t

(** Raised by {!deliver} on a node whose device was never attached — a
    topology-wiring bug. Carries the node's name. *)
exception Unattached of { node : string }

(** [deliver t ~in_port pkt] invokes the attached handler; {!Unattached}
    if there is none. *)
val deliver : t -> in_port:int -> Packet.t -> unit
