(** The per-sim observation tap: how devices report what they did to
    observers, kept apart from the switch program ([Switch.hooks]).

    A device calls {!emit} with a kind, the node it concerns and two ints;
    the consumers registered for that kind with {!on} run in registration
    order. A kind nobody listens to costs one branch and allocates
    nothing. A packet travels as its index in the sim's packet table
    ([Bfc_net.Packet.Pool.get] recovers it while the consumer runs), a
    switch queue as {!queue_key}, a pause state as 1 (paused) or 0. *)

type kind =
  | Enqueue  (** switch, after the program's hook: queue key, packet *)
  | Dequeue
      (** switch, after the program's hook: queue key, packet (still
          carrying [enq_at], so its queuing delay is now - enq_at) *)
  | Drop  (** switch, after the program's hook: queue key, packet *)
  | Queue_pause  (** switch queue pause transition: queue key, state *)
  | Watchdog  (** switch watchdog force-resume, before it applies: queue key, 0 *)
  | Reboot  (** switch reboot, after the flush: packets lost, 0 *)
  | Nic_pause  (** host NIC ctrl-frame pause transition: queue (-1 = uplink PFC), state *)
  | Port_tx  (** data-path serialization starts; [node] = the receiving peer: gid, packet *)
  | Ctrl_rx
      (** control frame (pause, resume, bitmap, PFC, hop credit) arriving at
          a switch or host, before it is handled: ingress port, packet *)
  | Link_down  (** fault injector; [node] = the port's transmitter: gid, 0 *)
  | Link_up  (** as [Link_down] *)

type t

val create : unit -> t

(** [on t kind f] registers [f] for [kind], after the consumers already
    registered for it. *)
val on : t -> kind -> (node:int -> int -> int -> unit) -> unit

(** [emit t kind ~node a0 a1] runs [kind]'s consumers. A hot site whose
    arguments cost something to compute tests {!listened} first. *)
val emit : t -> kind -> node:int -> int -> int -> unit

val listened : t -> kind -> bool

(** [(egress lsl 12) lor (queue + 1)], the switch watchdog's packing:
    slot 0 is the port-level PFC queue [-1]. *)
val queue_key : egress:int -> queue:int -> int

val egress : int -> int

val queue : int -> int
