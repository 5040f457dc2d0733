(** Topology graph: nodes, links, shortest-path ECMP routing.

    Build a graph with [Builder], then [finish] computes, for every node and
    every destination host, the set of shortest-path egress ports (ECMP
    candidates). Concrete devices are attached to nodes afterwards.

    Helpers build the paper's topologies: the oversubscribed 2-level Clos of
    §6.2.1, the 3-"switch" testbed of §6.1, a dumbbell, a star, the App. B
    ring, and the two-data-center topology of App. A.9. *)

type t

module Builder : sig
  type b

  val create : Bfc_engine.Sim.t -> b

  val add_host : b -> name:string -> int

  val add_switch : b -> name:string -> int

  (** [link b a z ~gbps ~prop] adds a bidirectional link (two ports). *)
  val link : b -> int -> int -> gbps:float -> prop:Bfc_engine.Time.t -> unit

  val finish : b -> t
end

val sim : t -> Bfc_engine.Sim.t

val nodes : t -> Node.t array

(* observation: tests read a node; bfc-lint: allow DC001 *)
val node : t -> int -> Node.t

(** Node ids of all hosts, in creation order. *)
val hosts : t -> int array

(** A node's position in {!hosts}, or [-1] for a switch. *)
val host_index : t -> int -> int

(** Ports of a node (local index order). *)
val ports : t -> int -> Port.t array

val port : t -> int -> int -> Port.t

(** Total number of directed ports (gids are [0, total)). *)
val total_ports : t -> int

(** Port by global id. *)
val port_by_gid : t -> int -> Port.t

(** The local index of [node]'s port whose link leads to [peer]. Raises
    [Invalid_argument] when no link joins them. *)
val egress_towards : t -> node:int -> peer:int -> int

(** ECMP candidate egress ports (local indices) at [node] towards host
    [dst]. Empty only if [node = dst]. *)
val candidates : t -> node:int -> dst:int -> int array

(** Consistent ECMP choice: hash of (flow id, node). *)
val ecmp_port : t -> node:int -> fid:int -> dst:int -> int

(** Per-packet choice for spraying: uniform [rng] among the candidates. *)
val spray_port : t -> node:int -> rng:Bfc_util.Rng.t -> dst:int -> int

(** The deterministic first-candidate path from [src] to [dst], as the list
    of ports traversed. Host-to-host paths are walked once and cached. *)
(* observation: tests check that routes reach their destination; bfc-lint: allow DC001 *)
val path : t -> src:int -> dst:int -> Port.t list

(** Best-possible FCT of a [size]-byte flow from [src] to [dst] running
    alone: store-and-forward pipeline at line rate. [mtu] is the payload per
    packet; [extra_header] models per-packet protocol overhead. *)
val ideal_fct :
  t -> src:int -> dst:int -> size:int -> mtu:int -> ?extra_header:int -> unit -> Bfc_engine.Time.t

(** Base (unloaded) RTT between two hosts: data path one way + ack path
    back, excluding serialization of the payload itself. *)
val base_rtt : t -> src:int -> dst:int -> Bfc_engine.Time.t

(** {2 Canned topologies} *)

type clos = {
  t : t;
  cl_hosts : int array;
  tors : int array;
  spines : int array;
  rack_of : int -> int; (** host node id -> rack index *)
}

(** [clos sim ~spines ~tors ~hosts_per_tor ~gbps ~prop] — every ToR links to
    every spine; 2:1 oversubscription when [hosts_per_tor = 2 x spines].
    All links share [gbps] and [prop] (the paper: 100 Gbps, 1 us). *)
val clos :
  Bfc_engine.Sim.t ->
  spines:int ->
  tors:int ->
  hosts_per_tor:int ->
  gbps:float ->
  prop:Bfc_engine.Time.t ->
  clos

type dumbbell = {
  d : t;
  senders : int array;
  receiver : int;
}

(** [dumbbell sim ~senders ~gbps ~prop] — n senders -> switch -> switch ->
    1 receiver; the switch-to-switch link is the bottleneck. *)
val dumbbell :
  Bfc_engine.Sim.t -> senders:int -> gbps:float -> prop:Bfc_engine.Time.t -> dumbbell

type star = {
  s : t;
  st_senders : int array;
  st_receiver : int;
  st_switch : int;
  st_bottleneck_gid : int; (** switch -> receiver egress *)
}

(** [star sim ~senders ~gbps ~prop] — n senders and one receiver on a single
    switch; the switch-to-receiver link is the bottleneck (single-link
    microbenchmarks: Table 1, Fig. 3/4). *)
val star : Bfc_engine.Sim.t -> senders:int -> gbps:float -> prop:Bfc_engine.Time.t -> star

type testbed = {
  tb : t;
  group1 : int array; (** sender hosts: S1 -> Sw1 -> Sw2 -> R1 *)
  group2 : int array; (** sender hosts: S2 -> Sw1 -> Sw2 -> R2 *)
  group3 : int array; (** sender hosts: S3 -> Sw3 -> Sw2 -> R2 *)
  recv1 : int;
  recv2 : int;
  sw2 : int;
}

(** The §6.1 Tofino2 loopback testbed: 3 logical switches, 100 Gbps ports. *)
val testbed :
  Bfc_engine.Sim.t ->
  g1:int ->
  g2:int ->
  g3:int ->
  gbps:float ->
  prop:Bfc_engine.Time.t ->
  testbed

type ring = {
  rg : t;
  rg_hosts : int array; (** one host per switch, in ring order *)
}

(** [ring sim ~switches ~gbps ~prop] — [switches] switches in a cycle, one
    host on each: the App. B cyclic-buffer-dependency topology, on which
    shortest-path routing builds a cyclic backpressure graph. *)
val ring : Bfc_engine.Sim.t -> switches:int -> gbps:float -> prop:Bfc_engine.Time.t -> ring

type cross_dc = {
  x : t;
  dc1 : clos_part;
  dc2 : clos_part;
  interconnect_gid : int; (** gw1 -> gw2 egress port gid *)
}

and clos_part = { xc_hosts : int array; xc_spines : int array }

(** App. A.9: two Clos data centers joined by a [wan_gbps] link with
    [wan_prop] one-way delay through gateway switches. *)
val cross_dc :
  Bfc_engine.Sim.t ->
  spines:int ->
  tors:int ->
  hosts_per_tor:int ->
  gbps:float ->
  prop:Bfc_engine.Time.t ->
  wan_gbps:float ->
  wan_prop:Bfc_engine.Time.t ->
  cross_dc
