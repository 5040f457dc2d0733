module Sim = Bfc_engine.Sim
module Time = Bfc_engine.Time
module Topology = Bfc_net.Topology
module Node = Bfc_net.Node
module Port = Bfc_net.Port
module Packet = Bfc_net.Packet
module Flow = Bfc_net.Flow
module Switch = Bfc_switch.Switch
module Sched = Bfc_switch.Sched
module Dataplane = Bfc_core.Dataplane
module Host = Bfc_transport.Host

type params = {
  mtu : int;
  buffer_bytes : int;
  ecn_kmin : int;
  ecn_kmax : int;
  pfc_frac : float;
  ideal_queues : int;
  track_active_flows : bool;
  deadlock_filter : bool;
  classes : int;
  pause_watchdog : Time.t option;
  seed : int;
  homa_dist : Bfc_workload.Dist.t;
  streaming : bool;
}

let default_params =
  {
    mtu = 1000;
    buffer_bytes = 12_000_000;
    ecn_kmin = 100_000;
    ecn_kmax = 400_000;
    pfc_frac = 0.11;
    ideal_queues = 256;
    track_active_flows = false;
    deadlock_filter = false;
    classes = 1;
    pause_watchdog = None;
    seed = 42;
    homa_dist = Bfc_workload.Dist.google;
    streaming = false;
  }

type env = {
  sim : Sim.t;
  topo : Topology.t;
  scheme : Scheme.t;
  params : params;
  pool : Packet.Pool.t;
  hosts : Host.t option array;
  switches : Switch.t array;
  dataplanes : Dataplane.t array;
  base_rtt : Time.t;
  bdp : int;
  extra_header : int;
  mutable injected : int;
  mutable completed : int;
}

let sim env = env.sim

let topo env = env.topo

let scheme env = env.scheme

let params env = env.params

let base_rtt env = env.base_rtt

let bdp env = env.bdp

let switches env = env.switches

let dataplanes env = env.dataplanes

let host env i =
  match env.hosts.(i) with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Runner.host: node %d is not a host" i)

let iter_hosts env f =
  Array.iter
    (function
      | Some h -> f h
      | None -> ())
    env.hosts

let injected env = env.injected

let completed env = env.completed

let pool env = env.pool

let events_executed env = Sim.executed_events env.sim

(* ------------------------------------------------------------------ *)

let compute_base_rtt topo =
  let hosts = Topology.hosts topo in
  let n = Array.length hosts in
  if n < 2 then 0
  else begin
    (* sample a handful of pairs and take the max *)
    let acc = ref 0 in
    let probe a b = if a <> b then acc := max !acc (Topology.base_rtt topo ~src:a ~dst:b) in
    probe hosts.(0) hosts.(n - 1);
    probe hosts.(0) hosts.(n / 2);
    probe hosts.(n / 4) hosts.(n - 1);
    !acc
  end

let ecmp_route topo sw ~in_port:_ pkt =
  let node = Switch.node_id sw in
  match pkt.Packet.flow with
  | Some f -> Topology.ecmp_port topo ~node ~flow:f ~dst:pkt.Packet.dst
  | None -> (Topology.candidates topo ~node ~dst:pkt.Packet.dst).(0)

let spray_route topo rngs sw ~in_port pkt =
  let node = Switch.node_id sw in
  match pkt.Packet.kind with
  | Packet.Data -> Topology.spray_port topo ~node ~rng:rngs.(node) ~dst:pkt.Packet.dst
  | _ -> ecmp_route topo sw ~in_port pkt

(* Switch + dataplane + host configuration per scheme. *)

let hpcc_int_header = 80

let extra_header_of = function
  | Scheme.Hpcc _ | Scheme.Hpcc_pfc _ -> hpcc_int_header
  | _ -> 0

let switch_config (s : Scheme.t) (p : params) : Switch.config =
  let base =
    {
      Switch.default_config with
      mtu = p.mtu;
      buffer_bytes = p.buffer_bytes;
      pause_watchdog = p.pause_watchdog;
    }
  in
  let ecn = Some { Switch.kmin = p.ecn_kmin; kmax = p.ecn_kmax; pmax = 1.0 } in
  let pfc = Some { Switch.threshold_frac = p.pfc_frac; resume_frac = 0.8 } in
  match s with
  | Scheme.Bfc o ->
    {
      base with
      queues_per_port = o.Scheme.queues;
      classes = o.Scheme.classes;
      policy = (if o.Scheme.srf then Sched.Srf else Sched.Drr);
      track_active_flows = p.track_active_flows;
    }
  | Scheme.Bfc_credit { queues; _ } ->
    (* lossless by construction: the buffer must cover all granted credit;
       we run unbounded and report the (bounded) peak occupancy instead *)
    {
      base with
      queues_per_port = queues;
      buffer_bytes = max_int;
      track_active_flows = p.track_active_flows;
    }
  | Scheme.Ideal_fq ->
    {
      base with
      queues_per_port = p.ideal_queues;
      policy = Sched.Drr;
      buffer_bytes = max_int;
      track_active_flows = p.track_active_flows;
    }
  | Scheme.Ideal_srf ->
    {
      base with
      queues_per_port = p.ideal_queues;
      policy = Sched.Srf;
      buffer_bytes = max_int;
      track_active_flows = p.track_active_flows;
    }
  | Scheme.Dctcp _ | Scheme.Dcqcn ->
    {
      base with
      queues_per_port = max 1 p.classes;
      classes = max 1 p.classes;
      ecn;
      pfc;
      track_active_flows = p.track_active_flows;
    }
  | Scheme.Hpcc _ ->
    {
      base with
      queues_per_port = max 1 p.classes;
      classes = max 1 p.classes;
      pfc;
      int_stamping = true;
    }
  | Scheme.Hpcc_pfc { sfq; dqa } ->
    let queues = if sfq || dqa then 32 else 1 in
    { base with queues_per_port = queues; int_stamping = true }
  | Scheme.Swift _ | Scheme.Timely ->
    { base with queues_per_port = max 1 p.classes; classes = max 1 p.classes; pfc }
  | Scheme.Pfc_only -> { base with queues_per_port = 1; pfc }
  | Scheme.Expresspass _ ->
    { base with queues_per_port = 4; buffer_bytes = max_int }
  | Scheme.Homa _ ->
    { base with queues_per_port = 32; policy = Sched.Prio_strict; buffer_bytes = max_int }

let dataplane_config (s : Scheme.t) (p : params) ~nic_queues : Dataplane.config option =
  let max_upstream_q = max (p.ideal_queues + 1) (nic_queues + 1) in
  match s with
  | Scheme.Bfc o ->
    Some
      {
        Dataplane.assignment = o.Scheme.assignment;
        table_mult = o.Scheme.table_mult;
        sticky_hrtt_mult = o.Scheme.sticky_hrtt_mult;
        th_factor = o.Scheme.th_factor;
        fixed_th = o.Scheme.fixed_th;
        sampling = o.Scheme.sampling;
        incast_label = o.Scheme.incast_label;
        bitmap_period = o.Scheme.bitmap_period;
        max_upstream_q;
        seed = p.seed;
      }
  | Scheme.Ideal_fq | Scheme.Ideal_srf ->
    Some
      {
        Dataplane.default_config with
        table_mult = 8;
        fixed_th = Some max_int;
        max_upstream_q;
        seed = p.seed;
      }
  | Scheme.Hpcc_pfc { sfq; dqa } when sfq || dqa ->
    Some
      {
        Dataplane.default_config with
        assignment = (if dqa then Bfc_core.Dqa.Dynamic else Bfc_core.Dqa.Stochastic);
        table_mult = 100;
        fixed_th = Some max_int;
        max_upstream_q;
        seed = p.seed;
      }
  | _ -> None

let nic_queues_of = function
  | Scheme.Bfc _ | Scheme.Bfc_credit _ -> 129
  | Scheme.Ideal_fq | Scheme.Ideal_srf -> 257
  | Scheme.Homa _ -> 33
  | _ -> 65

let host_config (s : Scheme.t) (p : params) ~base_rtt ~bdp ~line_gbps : Host.config =
  let base =
    {
      Host.default_config with
      mtu = p.mtu;
      extra_header = extra_header_of s;
      base_rtt;
      bdp;
      line_gbps;
      nic_queues = nic_queues_of s;
      pause_watchdog = p.pause_watchdog;
      seed = p.seed;
      rto = max (Time.us 200.0) (10 * base_rtt);
    }
  in
  match s with
  | Scheme.Bfc o ->
    {
      base with
      scheme =
        Host.Bfc
          {
            window_cap =
              Option.map (fun x -> int_of_float (x *. float_of_int bdp)) o.Scheme.window_cap;
            delay_cc = o.Scheme.delay_cc;
          };
      nic_policy = (if o.Scheme.srf then Sched.Srf else Sched.Drr);
      respect_pause = o.Scheme.nic_respect_pause;
      srf = o.Scheme.srf;
    }
  | Scheme.Bfc_credit { credit_bytes; _ } ->
    {
      base with
      scheme = Host.Bfc { window_cap = None; delay_cc = false };
      nic_credit = Some credit_bytes;
    }
  | Scheme.Ideal_fq ->
    { base with scheme = Host.Bfc { window_cap = Some bdp; delay_cc = false } }
  | Scheme.Ideal_srf ->
    {
      base with
      scheme = Host.Bfc { window_cap = Some bdp; delay_cc = false };
      nic_policy = Sched.Srf;
      srf = true;
    }
  | Scheme.Dctcp { slow_start } -> { base with scheme = Host.Dctcp { slow_start } }
  | Scheme.Dcqcn -> { base with scheme = Host.Dcqcn Bfc_transport.Dcqcn.default_params }
  | Scheme.Hpcc { eta; max_stage } ->
    { base with scheme = Host.Hpcc { eta; max_stage; perfect_rtx = false } }
  | Scheme.Hpcc_pfc _ ->
    { base with scheme = Host.Hpcc { eta = 0.95; max_stage = 5; perfect_rtx = true } }
  | Scheme.Swift { target_mult; beta } ->
    { base with scheme = Host.Swift { target_mult; beta } }
  | Scheme.Timely -> { base with scheme = Host.Timely }
  | Scheme.Pfc_only ->
    { base with scheme = Host.Bfc { window_cap = Some bdp; delay_cc = false } }
  | Scheme.Expresspass { target_loss; w_init; w_max } ->
    { base with scheme = Host.Xpass { target_loss; w_init; w_max } }
  | Scheme.Homa { spray } ->
    let prms =
      Bfc_transport.Homa.params_for ~dist:Bfc_workload.Dist.google ~total_prios:32
        ~rtt_bytes:bdp ~spray
    in
    { base with scheme = Host.Homa prms; nic_policy = Sched.Prio_strict }

(* Flow arrivals are typed [cls_flow_start] events whose [a0] is the
   flow's slot in a per-sim pending-start table. The hosts are the latest
   environment's, which own the nodes' handlers. *)
type starts = { pending : Flow.t Bfc_util.Slot_table.t; mutable live_hosts : Host.t option array }

type Sim.user += Starts of starts

let start_exec st a0 _ =
  match st with
  | Starts s -> (
    let f = Bfc_util.Slot_table.get s.pending a0 in
    Bfc_util.Slot_table.release s.pending a0;
    match s.live_hosts.(f.Flow.src) with
    | Some h -> Host.start_flow h f
    | None -> invalid_arg "Runner.inject: src is not a host")
  | _ -> invalid_arg "Runner.start_exec: foreign class state"

let starts sim =
  match Sim.class_state sim ~cls:Sim.cls_flow_start with
  | Some (Starts s) -> s
  | _ ->
    let s = { pending = Bfc_util.Slot_table.create (); live_hosts = [||] } in
    Sim.register_class sim ~cls:Sim.cls_flow_start ~state:(Starts s) ~exec:start_exec;
    s

let setup ~topo ~scheme ~params:p =
  let sim = Topology.sim topo in
  (* The sim's packet table: every switch and host draws from (and
     recycles into) it, so the steady-state hot path allocates no packets.
     Tables never cross environments, hence never cross domains. *)
  let pool = Port.pool sim in
  let nodes = Topology.nodes topo in
  let base_rtt = compute_base_rtt topo in
  (* line rate of host uplinks *)
  let line_gbps =
    let h = (Topology.hosts topo).(0) in
    Port.gbps (Topology.ports topo h).(0)
  in
  let bdp = int_of_float (float_of_int base_rtt *. line_gbps /. 8.0) in
  let swcfg = switch_config scheme p in
  let spray_rngs =
    Array.init (Array.length nodes) (fun i -> Bfc_util.Rng.create (p.seed + 31 + i))
  in
  let route =
    match scheme with
    | Scheme.Homa { spray = true } -> spray_route topo spray_rngs
    | _ -> ecmp_route topo
  in
  let hosts = Array.make (Array.length nodes) None in
  let switches = ref [] in
  let dataplanes = ref [] in
  let nic_queues = nic_queues_of scheme in
  let dpcfg = dataplane_config scheme p ~nic_queues in
  (* [src][dst] by host index, 0 until asked for; no n^2-word array at set-up *)
  let n_hosts = Array.length (Topology.hosts topo) in
  let pair_bdp = Array.make n_hosts [||] in
  let flow_bdp f =
    let hs = Topology.host_index topo f.Flow.src and hd = Topology.host_index topo f.Flow.dst in
    if Array.length pair_bdp.(hs) = 0 then pair_bdp.(hs) <- Array.make n_hosts 0;
    let row = pair_bdp.(hs) in
    if row.(hd) = 0 then begin
      let rtt = Topology.base_rtt topo ~src:f.Flow.src ~dst:f.Flow.dst in
      row.(hd) <- Int.max 1 (int_of_float (float_of_int rtt *. line_gbps /. 8.0))
    end;
    row.(hd)
  in
  (* Homa parameters depend on the workload distribution *)
  let hostcfg =
    let c = { (host_config scheme p ~base_rtt ~bdp ~line_gbps) with Host.flow_bdp = Some flow_bdp } in
    match (scheme, c.Host.scheme) with
    | Scheme.Homa { spray }, Host.Homa _ ->
      let prms =
        Bfc_transport.Homa.params_for ~dist:p.homa_dist ~total_prios:32 ~rtt_bytes:bdp ~spray
      in
      { c with Host.scheme = Host.Homa prms }
    | _ -> c
  in
  Array.iter
    (fun nd ->
      match nd.Node.kind with
      | Node.Switch ->
        let sw =
          Switch.create ~sim ~node:nd ~ports:(Topology.ports topo nd.Node.id) ~config:swcfg
            ~route:(fun sw ~in_port pkt -> route sw ~in_port pkt)
            ()
        in
        (match dpcfg with
        | Some c -> dataplanes := Dataplane.attach sw c :: !dataplanes
        | None -> ());
        (match scheme with
        | Scheme.Bfc_credit { credit_bytes; _ } ->
          let ccfg =
            {
              Bfc_core.Credit_dataplane.default_config with
              Bfc_core.Credit_dataplane.credit_bytes;
              max_upstream_q = max (nic_queues + 1) 130;
            }
          in
          ignore (Bfc_core.Credit_dataplane.attach sw ccfg)
        | _ -> ());
        (match scheme with
        | Scheme.Expresspass _ ->
          Bfc_transport.Xpass_switch.attach sw ~mtu_wire:(p.mtu + Packet.header_bytes)
        | _ -> ());
        switches := sw :: !switches
      | Node.Host ->
        let port = (Topology.ports topo nd.Node.id).(0) in
        let h = Host.create ~sim ~node:nd ~port ~config:hostcfg () in
        hosts.(nd.Node.id) <- Some h)
    nodes;
  let env =
    {
      sim;
      topo;
      scheme;
      params = p;
      pool;
      hosts;
      switches = Array.of_list (List.rev !switches);
      dataplanes = Array.of_list (List.rev !dataplanes);
      base_rtt;
      bdp;
      extra_header = extra_header_of scheme;
      injected = 0;
      completed = 0;
    }
  in
  (* perfect retransmission notice (HPCC-PFC): a dropped data packet is
     reported to its source 1 us later *)
  (match scheme with
  | Scheme.Hpcc_pfc _ ->
    Bfc_engine.Tap.on (Sim.tap sim) Bfc_engine.Tap.Drop (fun ~node:_ _ p ->
        let pkt = Packet.Pool.get pool p in
        match (pkt.Packet.kind, pkt.Packet.flow) with
        | Packet.Data, Some f ->
          let fid = f.Flow.id and seq = pkt.Packet.seq and len = pkt.Packet.payload in
          ignore
            (Sim.after sim (Time.us 1.0) (fun () ->
                 match hosts.(f.Flow.src) with
                 | Some h -> Host.on_drop_notice h ~flow_id:fid ~seq ~len
                 | None -> ()))
        | _ -> ())
  | _ -> ());
  (starts sim).live_hosts <- hosts;
  (* deadlock-prevention filter (App. B) *)
  if p.deadlock_filter then begin
    let g = Bfc_core.Deadlock.build topo in
    Array.iter
      (fun dp ->
        let sw = Dataplane.switch dp in
        let f = Bfc_core.Deadlock.make_filter topo g ~sw:(Switch.node_id sw) in
        Dataplane.allow_backpressure dp f)
      env.dataplanes
  end;
  (* completion counting; a streaming run also frees both ends' per-flow
     transport state 4 base RTTs later, once the flow's last control
     packets have drained *)
  let complete f =
    env.completed <- env.completed + 1;
    if p.streaming then
      Host.reclaim_after (host env f.Flow.src) ~peer:(host env f.Flow.dst) ~flow_id:f.Flow.id
        ~delay:(4 * base_rtt)
  in
  Array.iter (Option.iter (fun h -> Host.on_complete h complete)) hosts;
  env

let inject env flows =
  let s = starts env.sim in
  Sim.reserve env.sim (List.length flows);
  List.iter
    (fun f ->
      env.injected <- env.injected + 1;
      Sim.post env.sim f.Flow.arrival ~cls:Sim.cls_flow_start
        ~a0:(Bfc_util.Slot_table.put s.pending f) ~a1:0)
    flows

let run env ~until = ignore (Sim.run env.sim ~until)

let drain ?(step = Time.us 100.0) env ~budget =
  let deadline = Sim.now env.sim + budget in
  let rec loop () =
    if env.completed < env.injected && Sim.now env.sim < deadline then begin
      ignore (Sim.run env.sim ~until:(min deadline (Sim.now env.sim + step)));
      loop ()
    end
  in
  loop ()

let total_drops env =
  Array.fold_left (fun acc sw -> acc + Switch.data_drops sw) 0 env.switches

let pfc_pause_fraction env =
  let now = Sim.now env.sim in
  if now = 0 then 0.0
  else begin
    let total = ref 0 and ports = ref 0 in
    Array.iter
      (fun sw ->
        for e = 0 to Switch.n_ports sw - 1 do
          incr ports;
          total := !total + Switch.pfc_paused_ns sw ~egress:e
        done)
      env.switches;
    float_of_int !total /. (float_of_int !ports *. float_of_int now)
  end

let ideal_fct env f =
  Topology.ideal_fct env.topo ~src:f.Flow.src ~dst:f.Flow.dst ~size:f.Flow.size
    ~mtu:env.params.mtu ~extra_header:env.extra_header ()

let slowdown env f =
  if not (Flow.complete f) then invalid_arg "Runner.slowdown: incomplete flow";
  float_of_int (Flow.fct f) /. float_of_int (ideal_fct env f)
