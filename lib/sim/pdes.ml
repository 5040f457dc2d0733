(* Conservative parallel discrete-event engine (PDES): one simulation
   partitioned into shards, each a full [Sim.t] owned by one domain,
   synchronized with a window barrier derived from link lookahead.

   Protocol. Let L be the minimum propagation delay over the partition
   cut (at least one full propagation separates any cross-shard send
   from its delivery). Each round the coordinator:

     1. computes T_min = min over shards of [Sim.next_time];
     2. commands every shard to run its window [.., E-1] where
        E = min (T_min + L, until + 1);
     3. waits for all shards, draining their outbound channels while
        they run;
     4. at the barrier, sorts the drained messages deterministically and
        inserts each into its destination shard's event queue.

   Safety: a packet sent at virtual time s crosses the cut no earlier
   than s + L (serialization only adds to that), and every event the
   window executes has time >= T_min, so every message produced inside a
   window has delivery time >= T_min + L = E — strictly after the window
   it was produced in. Hence at the moment a window starts, each shard's
   queue already holds every event the window will execute: conservative,
   no rollback, and [Sim.run] itself is untouched.

   Deadlock-freedom. Channels are bounded; a producer finding its channel
   full wakes the coordinator (condition broadcast) and retries — it
   never drops. The coordinator is the single consumer of every channel
   and drains them whenever awake, and every wait it takes is interrupted
   by exactly the events that require action (worker completion, full
   channel). A stalled producer therefore always has an awake consumer:
   every push eventually succeeds, every window eventually ends.

   Determinism. Barrier insertion orders messages by (delivery time,
   send time, source port gid, per-producer sequence) — the order a
   sequential run would have created the same delivery events in
   whenever their send times differ. All shard-local scheduling is the
   untouched sequential code, so a sharded run reproduces the sequential
   event order (held to byte-identity by the differential test). *)

module Sim = Bfc_engine.Sim
module Time = Bfc_engine.Time
module Channel = Bfc_engine.Channel
module Node = Bfc_net.Node
module Port = Bfc_net.Port
module Packet = Bfc_net.Packet
module Flow = Bfc_net.Flow
module Partition = Bfc_net.Partition
module Topology = Bfc_net.Topology
module Int_table = Bfc_util.Int_table

(* Ambient default, set by the CLI (--shards) exactly like the pool job
   count; [Exp_common.run_std] consults it so
   sharding composes with every experiment and with [Pool] sweeps. *)
let default = Atomic.make 1

let set_default_shards n = Atomic.set default (max 1 n)

let default_shards () = Atomic.get default

type shard_ctx = {
  sx_sim : Sim.t;
  sx_nodes : Node.t array;
  sx_replicas : Flow.t Int_table.t;
}

type msg = {
  m_at : Time.t; (* absolute delivery time at the destination *)
  m_sent : Time.t; (* producer's virtual clock at the send *)
  m_src_gid : int; (* global id of the producing port *)
  m_seq : int; (* per-producer running count (same-send tiebreak) *)
  m_dst_shard : int;
  m_dst_node : int;
  m_in_port : int;
  m_flow_id : int; (* -1 for flow-less control packets *)
  m_pkt : Packet.Pool.clone; (* imported by the destination shard *)
}

type cmd = Run of Time.t | Quit

type worker = {
  w_mu : Mutex.t;
  w_cv : Condition.t; (* command handoff (coordinator -> worker) *)
  mutable w_cmd : cmd option;
  w_busy : bool Atomic.t;
  w_chan : msg array Channel.t; (* one ring slot per burst, not per message *)
  mutable w_burst : msg list; (* burst under construction, newest first *)
  mutable w_burst_n : int;
  mutable w_seq : int; (* written by the owning worker only *)
  mutable w_stalls : int; (* full-channel retries (diagnostics) *)
  mutable w_exn : exn option; (* failure inside Sim.run, rethrown at the barrier *)
  mutable w_dom : unit Domain.t option;
}

type t = {
  shards : shard_ctx array;
  lookahead : Time.t;
  workers : worker array;
  co_mu : Mutex.t;
  co_cv : Condition.t; (* coordinator wakeups (completion / full channel) *)
  mutable pending : msg list; (* drained, not yet inserted *)
  mutable messages : int; (* total cross-shard messages (diagnostics) *)
  mutable bursts : int; (* ring slots those messages crossed in *)
  mutable windows : int; (* barrier rounds (diagnostics) *)
}

let channel_capacity = 1 lsl 15

(* Messages per ring slot: a producer publishes at most one cursor bump
   per [burst_max] messages (plus one for the window's tail), instead of
   one per message. *)
let burst_max = 256

(* Wake the coordinator: workers call this on completion and while
   spinning on a full channel (so the single consumer is never asleep
   when a producer needs it to drain). *)
let wake t =
  Mutex.lock t.co_mu;
  Condition.broadcast t.co_cv;
  Mutex.unlock t.co_mu

(* Producer side: publish the burst under construction as one ring slot.
   Runs on the owning worker's domain (and, harmlessly, on the
   coordinator after a barrier, when the buffer is always empty). *)
let flush_burst t w =
  if w.w_burst_n > 0 then begin
    let b = Array.of_list (List.rev w.w_burst) in
    w.w_burst <- [];
    w.w_burst_n <- 0;
    while not (Channel.try_push w.w_chan b) do
      (* bounded + lossless: stall here (never drop), and wake the
         coordinator so the single consumer drains us free *)
      w.w_stalls <- w.w_stalls + 1;
      wake t;
      Domain.cpu_relax ()
    done
  end

let worker_body t k =
  let w = t.workers.(k) in
  let sx = t.shards.(k) in
  let rec loop () =
    Mutex.lock w.w_mu;
    let rec take () =
      match w.w_cmd with
      | Some c ->
        w.w_cmd <- None;
        c
      | None ->
        Condition.wait w.w_cv w.w_mu;
        take ()
    in
    let cmd = take () in
    Mutex.unlock w.w_mu;
    match cmd with
    | Quit ->
      Atomic.set w.w_busy false;
      wake t
    | Run until ->
      (try ignore (Sim.run sx.sx_sim ~until) with e -> w.w_exn <- Some e);
      (* the window's tail burst must be visible before the barrier sees
         us parked ([Atomic.set] publishes both) *)
      flush_burst t w;
      Atomic.set w.w_busy false;
      wake t;
      loop ()
  in
  loop ()

let create ~shards ~lookahead =
  if Array.length shards = 0 then invalid_arg "Pdes.create: no shards";
  if lookahead <= 0 then invalid_arg "Pdes.create: lookahead must be positive";
  let workers =
    Array.map
      (fun _ ->
        {
          w_mu = Mutex.create ();
          w_cv = Condition.create ();
          w_cmd = None;
          w_busy = Atomic.make false;
          w_chan = Channel.create ~capacity:channel_capacity;
          w_burst = [];
          w_burst_n = 0;
          w_seq = 0;
          w_stalls = 0;
          w_exn = None;
          w_dom = None;
        })
      shards
  in
  let t =
    {
      shards;
      lookahead;
      workers;
      co_mu = Mutex.create ();
      co_cv = Condition.create ();
      pending = [];
      messages = 0;
      bursts = 0;
      windows = 0;
    }
  in
  Array.iteri (fun k w -> w.w_dom <- Some (Domain.spawn (fun () -> worker_body t k))) workers;
  t

(* Producer side: runs on the source shard's domain, inside Sim.run.
   The clone (made here, in the producing domain) is the only part of
   the packet that crosses; the port returns the original to its
   shard's packet table once this returns.
   No [~sim] on the clone: uids would otherwise perturb the per-sim uid
   stream relative to a sequential run (uids are diagnostics, but the
   differential is easier to trust when streams match). *)
let emit t ~src_shard ~src_gid ~dst_shard ~dst_node ~in_port pkt ~at =
  let w = t.workers.(src_shard) in
  let m =
    {
      m_at = at;
      m_sent = Sim.now t.shards.(src_shard).sx_sim;
      m_src_gid = src_gid;
      m_seq = w.w_seq;
      m_dst_shard = dst_shard;
      m_dst_node = dst_node;
      m_in_port = in_port;
      m_flow_id = Packet.flow_id pkt;
      m_pkt = Packet.Pool.clone (Port.pool t.shards.(src_shard).sx_sim) pkt;
    }
  in
  w.w_seq <- w.w_seq + 1;
  w.w_burst <- m :: w.w_burst;
  w.w_burst_n <- w.w_burst_n + 1;
  if w.w_burst_n >= burst_max then flush_burst t w

(* Install the remote hook on every cut port owned by [shard]: captures
   happen at send time on the producing domain (capturing at
   delivery-event time would race with the destination's window). *)
let wire t ~partition ~shard ~topo =
  Partition.iter_cut topo partition (fun ~src p ->
      if Partition.owner partition src = shard then begin
        let dst_shard = Partition.owner partition (Port.peer p).Node.id in
        let dst_node = (Port.peer p).Node.id in
        let in_port = Port.peer_port p in
        let src_gid = Port.gid p in
        Port.set_remote p (fun pkt ~at ->
            emit t ~src_shard:shard ~src_gid ~dst_shard ~dst_node ~in_port pkt ~at)
      end)

let drain_channels t =
  Array.iter
    (fun w ->
      t.bursts <-
        t.bursts
        + Channel.drain w.w_chan (fun b ->
              Array.iter
                (fun m ->
                  t.pending <- m :: t.pending;
                  t.messages <- t.messages + 1)
                b))
    t.workers

let any_busy t = Array.exists (fun w -> Atomic.get w.w_busy) t.workers

let channels_empty t = Array.for_all (fun w -> Channel.is_empty w.w_chan) t.workers

let command_all t cmd =
  Array.iter
    (fun w ->
      Atomic.set w.w_busy true;
      Mutex.lock w.w_mu;
      w.w_cmd <- Some cmd;
      Condition.signal w.w_cv;
      Mutex.unlock w.w_mu)
    t.workers

(* Wait for every worker to park, draining outbound channels the whole
   time. The sleep is taken under [co_mu] and only when there is nothing
   to drain; both events that need the coordinator (completion, full
   channel) broadcast [co_cv], so no wakeup can be missed. *)
let await_all t =
  let rec go () =
    drain_channels t;
    if any_busy t then begin
      Mutex.lock t.co_mu;
      if any_busy t && channels_empty t then Condition.wait t.co_cv t.co_mu;
      Mutex.unlock t.co_mu;
      go ()
    end
  in
  go ();
  drain_channels t;
  Array.iter
    (fun w ->
      match w.w_exn with
      | Some e ->
        w.w_exn <- None;
        raise e
      | None -> ())
    t.workers

let cmp_msg a b =
  let c = Int.compare a.m_at b.m_at in
  if c <> 0 then c
  else
    let c = Int.compare a.m_sent b.m_sent in
    if c <> 0 then c
    else
      let c = Int.compare a.m_src_gid b.m_src_gid in
      if c <> 0 then c else Int.compare a.m_seq b.m_seq

(* Typed barrier delivery ([cls_pdes_barrier]): the clone is imported
   into the destination's packet table at the barrier (coordinator
   thread, every shard parked) and released there by whichever device
   consumes it (the owning worker's domain, inside its window); each
   side's writes are published to the other by the barrier protocol
   itself (the [w_busy] atomics and the command mutex handoff). The event
   carries the destination node and ingress port packed in [a0] and the
   packet's table index in [a1]. *)

type Bfc_engine.Sim.user += Pdes_reg of { nodes : Node.t array; packets : Packet.Pool.t }

let port_bits = 20

let barrier_exec st a0 a1 =
  match st with
  | Pdes_reg r ->
    Node.deliver r.nodes.(a0 lsr port_bits)
      ~in_port:(a0 land ((1 lsl port_bits) - 1))
      (Packet.Pool.get r.packets a1)
  | _ -> invalid_arg "Pdes.barrier_exec: foreign class state"

let barrier_packets sx =
  match Sim.class_state sx.sx_sim ~cls:Sim.cls_pdes_barrier with
  | Some (Pdes_reg r) -> r.packets
  | _ ->
    let packets = Port.pool sx.sx_sim in
    Sim.register_class sx.sx_sim ~cls:Sim.cls_pdes_barrier
      ~state:(Pdes_reg { nodes = sx.sx_nodes; packets })
      ~exec:barrier_exec;
    packets

(* Barrier insertion: all shards are parked, so their queues are safe to
   touch from here (the next command's mutex handoff publishes the
   writes). Re-binding the flow replica happens now, on the packet the
   destination exclusively owns. [~sent] stamps the event with the
   producer's virtual send time, which is when a sequential run would
   have inserted it — so among same-time events it takes exactly the
   position the sequential schedule gives it. *)
let flush_pending t =
  match t.pending with
  | [] -> ()
  | ms ->
    t.pending <- [];
    List.iter
      (fun m ->
        let sx = t.shards.(m.m_dst_shard) in
        let pkt = Packet.Pool.import (barrier_packets sx) m.m_pkt in
        (match Int_table.find_exn sx.sx_replicas m.m_flow_id with
        | exception Not_found -> ()
        | f -> pkt.Packet.flow <- Some f);
        Sim.post ~sent:m.m_sent ~key:m.m_src_gid sx.sx_sim m.m_at ~cls:Sim.cls_pdes_barrier
          ~a0:((m.m_dst_node lsl port_bits) lor m.m_in_port)
          ~a1:pkt.Packet.idx)
      (List.sort cmp_msg ms)

let run t ~until =
  let rec loop () =
    let tmin = ref max_int in
    Array.iter
      (fun sx ->
        let nt = Sim.next_time sx.sx_sim in
        if nt >= 0 && nt < !tmin then tmin := nt)
      t.shards;
    if !tmin > until then begin
      (* nothing left at or before [until] anywhere: advance clocks *)
      command_all t (Run until);
      await_all t;
      flush_pending t
    end
    else begin
      let e = min (!tmin + t.lookahead) (until + 1) in
      t.windows <- t.windows + 1;
      command_all t (Run (min (e - 1) until));
      await_all t;
      flush_pending t;
      loop ()
    end
  in
  loop ()

let now t = Sim.now t.shards.(0).sx_sim

(* Mirror of [Runner.drain]: same default slice, same stop conditions,
   evaluated at the same virtual times — so a sharded drain ends at
   exactly the virtual time the sequential one does. *)
let drain ?(step = Time.us 100.0) t ~budget ~done_ =
  let deadline = now t + budget in
  let rec loop () =
    if (not (done_ ())) && now t < deadline then begin
      run t ~until:(min deadline (now t + step));
      loop ()
    end
  in
  loop ()

let shutdown t =
  command_all t Quit;
  Array.iter
    (fun w -> match w.w_dom with None -> () | Some d -> Domain.join d)
    t.workers;
  Array.iter (fun w -> w.w_dom <- None) t.workers

let messages t = t.messages

let bursts t = t.bursts

let windows t = t.windows

let stalls t = Array.fold_left (fun acc w -> acc + w.w_stalls) 0 t.workers

let events_executed t =
  Array.fold_left (fun acc sx -> acc + Sim.executed_events sx.sx_sim) 0 t.shards
