(** Conservative parallel discrete-event engine: one simulation sharded
    across domains, synchronized by a lookahead-wide window barrier.

    Each shard is an ordinary {!Bfc_engine.Sim.t} running the untouched
    sequential engine over the subset of devices its shard owns (see
    {!Bfc_net.Partition} and [Runner.setup_shard]). Packets crossing the
    partition cut are captured at send time by the {!Bfc_net.Port}
    remote hook, cloned, and carried over a bounded SPSC
    {!Bfc_engine.Channel} to the coordinator, which inserts them into
    the destination shard's queue at the next window barrier — always
    before the window that could execute them, because every cross-shard
    delivery is at least one cut propagation (the lookahead) after its
    send. Channels are backpressured, never lossy: a full channel stalls
    its producer and wakes the coordinator to drain.

    The coordinator (the calling thread) is the single consumer of every
    channel and the only code that touches a shard's queue between
    windows, so no simulation state is ever accessed concurrently.

    Determinism: barrier insertion sorts messages by (delivery time,
    send time, source port gid, producer sequence); shard-local
    scheduling is the unmodified sequential engine. The differential
    test holds sharded runs to byte-identical results against
    sequential ones. *)

(** Everything the coordinator needs to know about one shard. *)
type shard_ctx = {
  sx_sim : Bfc_engine.Sim.t;
  sx_nodes : Bfc_net.Node.t array;  (** this shard's node records, by id *)
  sx_replicas : Bfc_net.Flow.t Bfc_util.Int_table.t;
      (** flow id -> this shard's flow replica, for re-binding the flow
          pointer of packets arriving over a channel *)
}

type t

(** [create ~shards ~lookahead] spawns one domain per shard (workers park
    immediately; they run only when commanded). [lookahead] must be the
    minimum propagation over the partition cut
    ({!Bfc_net.Partition.lookahead}) and positive. *)
val create : shards:shard_ctx array -> lookahead:Bfc_engine.Time.t -> t

(** [wire t ~partition ~shard ~topo] installs the cross-shard capture
    hook on every cut port of [topo] owned by [shard]. Call once per
    shard with that shard's own topology replica, after [Runner.setup_shard]. *)
val wire : t -> partition:Bfc_net.Partition.t -> shard:int -> topo:Bfc_net.Topology.t -> unit

(** Run every shard to [until] (inclusive), window by window. On return
    all shard clocks equal [until] and every produced message has been
    delivered into its destination queue (as events strictly after
    [until] when beyond it). Re-raises any exception a shard's
    [Sim.run] raised. *)
val run : t -> until:Bfc_engine.Time.t -> unit

(** [drain ?step t ~budget ~done_] mirrors [Runner.drain] over the whole
    sharded simulation: advance in [step] slices (default 100 us) until
    [done_ ()] holds — evaluated only at slice barriers, where all
    shards are parked — or [budget] virtual time has elapsed. *)
val drain :
  ?step:Bfc_engine.Time.t -> t -> budget:Bfc_engine.Time.t -> done_:(unit -> bool) -> unit

(** Current virtual time (all shards agree between windows). *)
val now : t -> Bfc_engine.Time.t

(** Stop and join the worker domains. The shards' simulations remain
    readable afterwards. *)
val shutdown : t -> unit

(** Cross-shard messages carried so far. *)
val messages : t -> int

(** SPSC ring slots those messages crossed in (producers batch up to 256
    messages per slot); [messages / bursts] is the batching win. *)
val bursts : t -> int

(** Window barriers executed so far. *)
val windows : t -> int

(** Full-channel producer retries so far (0 in a well-sized run). *)
val stalls : t -> int

(** Total events executed across all shards. *)
val events_executed : t -> int

(** {2 Ambient shard count}

    Set from the CLI ([--shards]); consulted by [Exp_common.run_std] so
    sharding composes with every experiment and with [Pool] sweeps, the
    same pattern as [Pool.set_default_jobs]. *)

val set_default_shards : int -> unit

val default_shards : unit -> int
