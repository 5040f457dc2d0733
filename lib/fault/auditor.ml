module Sim = Bfc_engine.Sim
module Tap = Bfc_engine.Tap
module Time = Bfc_engine.Time
module Topology = Bfc_net.Topology
module Node = Bfc_net.Node
module Port = Bfc_net.Port
module Packet = Bfc_net.Packet
module Fifo = Bfc_switch.Fifo
module Switch = Bfc_switch.Switch
module Dataplane = Bfc_core.Dataplane
module Pause_counter = Bfc_core.Pause_counter
module Flow_table = Bfc_core.Flow_table
module Runner = Bfc_sim.Runner

type violation = {
  v_at : Time.t;
  v_node : int; (* -1 = network-wide *)
  v_invariant : string;
  v_detail : string;
}

exception Audit_violation of violation

let () =
  Printexc.register_printer (function
    | Audit_violation v ->
      Some
        (Printf.sprintf "Audit_violation (t=%dns, node %d, %s: %s)" v.v_at v.v_node v.v_invariant
           v.v_detail)
    | _ -> None)

type config = {
  period : Time.t;
  max_paused : Time.t;
  check_pairing : bool;
  fail_fast : bool;
}

let default_config =
  { period = Time.us 5.0; max_paused = Time.ms 2.0; check_pairing = true; fail_fast = true }

(* Per-switch counts fed by the tap. The conservation identity is
   enq = deq + flushed + resident, where flushed (reboot losses) is exactly
   the switch's drop counter growth that was NOT reported as a [Drop] — so
   the identity needs no resync across reboots. *)
type sw_state = {
  asw : Switch.t;
  adp : Dataplane.t option;
  drops_base : int;
  mutable enq : int;
  mutable deq : int;
  mutable tap_drops : int;
}

type t = {
  env : Runner.env;
  cfg : config;
  sws : sw_state array;
  (* Pause/Resume pairing beliefs from frames seen arriving at each
     (node, port, queue); [ever] distinguishes a benign re-Resume (watchdog
     or bitmap idempotence) from a Resume that never had a Pause. *)
  beliefs : (int * int * int, bool) Hashtbl.t;
  ever : (int * int * int, unit) Hashtbl.t;
  mutable violations : violation list; (* newest first *)
  mutable checks : int;
}

let violate t ~node ~invariant ~detail =
  let v =
    { v_at = Sim.now (Runner.sim t.env); v_node = node; v_invariant = invariant; v_detail = detail }
  in
  t.violations <- v :: t.violations;
  if t.cfg.fail_fast then raise (Audit_violation v)

(* ------------------------------------------------------------------ *)
(* Invariant checks                                                    *)

let check_switch t st =
  let sw = st.asw in
  let node = Switch.node_id sw in
  let now = Sim.now (Runner.sim t.env) in
  let total_bytes = ref 0 and total_pkts = ref 0 and marked = ref 0 in
  for e = 0 to Switch.n_ports sw - 1 do
    let qs = Switch.queues sw ~egress:e in
    let eb = Array.fold_left (fun a q -> a + q.Fifo.bytes) 0 qs in
    total_bytes := !total_bytes + eb;
    total_pkts := !total_pkts + Array.fold_left (fun a q -> a + Fifo.length q) 0 qs;
    Array.iter (Fifo.iter (fun pkt -> if pkt.Packet.bp_counted then incr marked)) qs;
    if eb <> Switch.egress_bytes sw ~egress:e then
      violate t ~node ~invariant:"egress-bytes"
        ~detail:
          (Printf.sprintf "egress %d accounts %d B but queues hold %d B" e
             (Switch.egress_bytes sw ~egress:e)
             eb)
  done;
  if Switch.buffer_used sw <> !total_bytes then
    violate t ~node ~invariant:"buffer-bytes"
      ~detail:
        (Printf.sprintf "shared buffer accounts %d B but queues hold %d B" (Switch.buffer_used sw)
           !total_bytes);
  let flushed = Switch.drops sw - st.drops_base - st.tap_drops in
  if st.enq - st.deq - flushed <> !total_pkts then
    violate t ~node ~invariant:"packet-conservation"
      ~detail:
        (Printf.sprintf "enq %d - deq %d - flushed %d <> %d resident" st.enq st.deq flushed
           !total_pkts);
  match st.adp with
  | None -> ()
  | Some dp ->
    let pc_total = Pause_counter.total (Dataplane.pause_counters dp) in
    if pc_total <> !marked then
      violate t ~node ~invariant:"pause-balance"
        ~detail:
          (Printf.sprintf "pause counters sum to %d but %d marked packets resident" pc_total
             !marked);
    let ft = Dataplane.flow_table dp in
    let slots = Flow_table.slots_per_port ft in
    for e = 0 to Switch.n_ports sw - 1 do
      let occ = Flow_table.occupied ft ~egress:e in
      if occ > slots then
        violate t ~node ~invariant:"flow-occupancy"
          ~detail:(Printf.sprintf "egress %d holds %d entries of %d slots" e occ slots)
    done;
    (* A queue held paused for a long time whose downstream pause counter
       is zero received a Pause whose matching Resume is gone (lost frame
       or downstream reboot) — exactly what the watchdog repairs. *)
    for e = 0 to Switch.n_ports sw - 1 do
      let port = Switch.port sw e in
      let peer = Port.peer port in
      if peer.Node.kind = Node.Switch then begin
        match
          Array.find_opt
            (fun o -> Switch.node_id (Dataplane.switch o) = peer.Node.id)
            (Runner.dataplanes t.env)
        with
        | None -> ()
        | Some dp_peer ->
          let pc = Dataplane.pause_counters dp_peer in
          Array.iter
            (fun q ->
              match Switch.queue_paused_since sw ~egress:e ~queue:q.Fifo.idx with
              | Some since
                when now - since > t.cfg.max_paused
                     && Pause_counter.count pc ~ingress:(Port.peer_port port)
                          ~upstream_q:q.Fifo.idx
                        = 0 ->
                violate t ~node ~invariant:"orphaned-pause"
                  ~detail:
                    (Printf.sprintf
                       "egress %d queue %d paused %d ns with zero downstream pause counter" e
                       q.Fifo.idx (now - since))
              | _ -> ())
            (Switch.queues sw ~egress:e)
      end
    done

let check t =
  t.checks <- t.checks + 1;
  Array.iter (fun st -> check_switch t st) t.sws;
  if Runner.completed t.env > Runner.injected t.env then
    violate t ~node:(-1) ~invariant:"flow-conservation"
      ~detail:
        (Printf.sprintf "%d flows completed of %d injected" (Runner.completed t.env)
           (Runner.injected t.env))

(* ------------------------------------------------------------------ *)
(* Pairing beliefs (ctrl frames observed on arrival)                   *)

let on_pause t ~node ~in_port ~queue =
  let key = (node, in_port, queue) in
  if Hashtbl.find_opt t.beliefs key = Some true then
    violate t ~node ~invariant:"pause-pairing"
      ~detail:(Printf.sprintf "duplicate Pause for port %d queue %d" in_port queue);
  Hashtbl.replace t.beliefs key true;
  Hashtbl.replace t.ever key ()

let on_resume t ~node ~in_port ~queue =
  let key = (node, in_port, queue) in
  if Hashtbl.find_opt t.beliefs key <> Some true && not (Hashtbl.mem t.ever key) then
    violate t ~node ~invariant:"pause-pairing"
      ~detail:(Printf.sprintf "Resume without prior Pause for port %d queue %d" in_port queue);
  Hashtbl.replace t.beliefs key false

let on_bitmap t ~node ~in_port ints =
  (* idempotent: listed queues are paused, every other known queue of this
     (node, port) is resumed; neither direction is a pairing violation *)
  Array.iter
    (fun q ->
      Hashtbl.replace t.beliefs (node, in_port, q) true;
      Hashtbl.replace t.ever (node, in_port, q) ())
    ints;
  let listed q = Array.exists (fun x -> x = q) ints in
  let to_resume =
    (* collected keys only feed Hashtbl.replace, order-independent;
       bfc-lint: allow det-hashtbl-order *)
    Hashtbl.fold
      (fun (n, p, q) paused acc ->
        if n = node && p = in_port && paused && not (listed q) then (n, p, q) :: acc else acc)
      t.beliefs []
  in
  List.iter (fun key -> Hashtbl.replace t.beliefs key false) to_resume

(* ------------------------------------------------------------------ *)

let attach ?(config = default_config) env =
  let sws =
    Array.map
      (fun sw ->
        let adp =
          Array.find_opt
            (fun dp -> Switch.node_id (Dataplane.switch dp) = Switch.node_id sw)
            (Runner.dataplanes env)
        in
        { asw = sw; adp; drops_base = Switch.drops sw; enq = 0; deq = 0; tap_drops = 0 })
      (Runner.switches env)
  in
  let t =
    {
      env;
      cfg = config;
      sws;
      beliefs = Hashtbl.create 256;
      ever = Hashtbl.create 256;
      violations = [];
      checks = 0;
    }
  in
  let tap = Sim.tap (Runner.sim env) in
  (* by node id: the switch's state *)
  let st_of = Array.make (Array.length (Topology.nodes (Runner.topo env))) None in
  Array.iter (fun st -> st_of.(Switch.node_id st.asw) <- Some st) sws;
  let count f ~node _ _ = match st_of.(node) with Some st -> f st | None -> () in
  Tap.on tap Tap.Enqueue (count (fun st -> st.enq <- st.enq + 1));
  Tap.on tap Tap.Dequeue (count (fun st -> st.deq <- st.deq + 1));
  Tap.on tap Tap.Drop (count (fun st -> st.tap_drops <- st.tap_drops + 1));
  if config.check_pairing then begin
    let pool = Runner.pool env in
    Tap.on tap Tap.Ctrl_rx (fun ~node in_port p ->
        let pkt = Packet.Pool.get pool p in
        match pkt.Packet.kind with
        | Packet.Pause -> on_pause t ~node ~in_port ~queue:pkt.Packet.ctrl_a
        | Packet.Resume -> on_resume t ~node ~in_port ~queue:pkt.Packet.ctrl_a
        | Packet.Pause_bitmap -> on_bitmap t ~node ~in_port pkt.Packet.ints
        | _ -> ())
  end;
  ignore (Sim.every (Runner.sim env) ~period:config.period (fun () -> check t));
  t

let violations t = List.rev t.violations

let violation_count t = List.length t.violations

let checks_run t = t.checks

let ok t = t.violations = []

let to_string v =
  Printf.sprintf "%.3fus node %d [%s] %s" (Time.to_us v.v_at) v.v_node v.v_invariant v.v_detail
