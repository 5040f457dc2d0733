module Sim = Bfc_engine.Sim
module Time = Bfc_engine.Time
module Topology = Bfc_net.Topology
module Port = Bfc_net.Port
module Packet = Bfc_net.Packet
module Flow = Bfc_net.Flow
module Switch = Bfc_switch.Switch
module Deadlock = Bfc_core.Deadlock
module Runner = Bfc_sim.Runner
module Tap = Bfc_engine.Tap

type config = {
  d_period : Time.t;
  d_window : int;
  d_storm_frac : float;
  d_deadlock_hold : int;
  d_victim_slowdown : float;
  d_victim_own_bytes : int;
  d_victim_min_pause : Time.t;
  d_victim_frac : float;
}

let default_config =
  {
    d_period = Time.us 5.0;
    d_window = 10;
    d_storm_frac = 0.5;
    d_deadlock_hold = 3;
    d_victim_slowdown = 4.0;
    d_victim_own_bytes = 32 * 1024;
    d_victim_min_pause = Time.us 5.0;
    d_victim_frac = 0.3;
  }

type storm = {
  st_gid : int;
  st_onset : Time.t;
  st_duration : Time.t;
  st_peak_frac : float;
}

type deadlock_incident = {
  dl_at : Time.t;
  dl_cycle : int list;
  dl_static_dangerous : bool;
}

type victim = {
  v_flow : int;
  v_slowdown : float;
  v_gid : int;
  v_queue : int;
  v_pause_ns : int;
}

type report = {
  r_storms : storm list;
  r_storm_ports : int;
  r_max_blast : int;
  r_deadlocks : deadlock_incident list;
  r_victims : victim list;
  r_ticks : int;
}

(* A flow's footprint at one (egress port, queue): pause exposure at first
   touch / last dequeue, and the flow's own resident bytes there. *)
type fq = {
  fq_gid : int;
  fq_queue : int;
  fq_p0 : int;
  mutable fq_last : int;
  mutable fq_out : int;
  mutable fq_peak : int;
}

type t = {
  env : Runner.env;
  cfg : config;
  n : int;
  (* port-level pause spans (PFC egress pause / NIC uplink pause) *)
  pl_cum : int array;
  pl_open : int array; (* open-span start, -1 if not paused *)
  (* per-queue pause spans, switch egresses only *)
  q_cum : int array array;
  q_open : int array array;
  (* sliding window of per-tick port-level pause ns *)
  win : int array array;
  win_sum : int array;
  mutable win_pos : int;
  prev_cum : int array;
  in_storm : bool array;
  storm_onset : int array;
  storm_peak : float array;
  mutable storms : storm list; (* closed, reverse order *)
  mutable max_blast : int;
  (* runtime deadlock state *)
  succ : int list array; (* static backpressure adjacency *)
  dangerous : (int * int, unit) Hashtbl.t;
  dl_mem : bool array; (* scratch: paused-set membership *)
  mutable dl_fp : string;
  mutable dl_tx : int;
  mutable dl_streak : int;
  dl_reported : (string, unit) Hashtbl.t;
  mutable deadlocks : deadlock_incident list; (* reverse order *)
  (* victim tracking *)
  frecs : (int, fq list ref) Hashtbl.t; (* flow id -> footprints *)
  mutable ticks : int;
}

let port_pause_eff t gid ~now =
  t.pl_cum.(gid) + (if t.pl_open.(gid) >= 0 then now - t.pl_open.(gid) else 0)

let queue_pause_eff t gid queue ~now =
  let qc = t.q_cum.(gid) in
  if queue >= 0 && queue < Array.length qc then
    qc.(queue) + (if t.q_open.(gid).(queue) >= 0 then now - t.q_open.(gid).(queue) else 0)
  else 0

(* Total pause exposure of a (port, queue): a PFC port pause blocks every
   queue of the port, so the two span kinds add. *)
let exposure t gid queue ~now = port_pause_eff t gid ~now + queue_pause_eff t gid queue ~now

let span_transition cum opn i ~now ~paused =
  if paused then begin
    if opn.(i) < 0 then opn.(i) <- now
  end
  else if opn.(i) >= 0 then begin
    cum.(i) <- cum.(i) + (now - opn.(i));
    opn.(i) <- -1
  end

let port_transition t gid ~now ~paused = span_transition t.pl_cum t.pl_open gid ~now ~paused

let queue_transition t gid queue ~now ~paused =
  if queue >= 0 && queue < Array.length t.q_cum.(gid) then
    span_transition t.q_cum.(gid) t.q_open.(gid) queue ~now ~paused

(* ------------------------------------------------------------------ *)
(* Victim footprints *)

let footprint t fid gid queue ~now =
  let r =
    match Hashtbl.find_opt t.frecs fid with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add t.frecs fid r;
      r
  in
  (* a flow touches at most hop-count (port, queue) cells; bfc-lint: allow df-list *)
  match List.find_opt (fun f -> f.fq_gid = gid && f.fq_queue = queue) !r with
  | Some f -> f
  | None ->
    let p0 = exposure t gid queue ~now in
    let f = { fq_gid = gid; fq_queue = queue; fq_p0 = p0; fq_last = p0; fq_out = 0; fq_peak = 0 } in
    r := f :: !r;
    f

let on_enq t gid ~queue pkt =
  let fid = Packet.flow_id pkt in
  if fid >= 0 then begin
    let now = Sim.now (Runner.sim t.env) in
    let f = footprint t fid gid queue ~now in
    f.fq_out <- f.fq_out + pkt.Packet.size;
    if f.fq_out > f.fq_peak then f.fq_peak <- f.fq_out
  end

let on_deq t gid ~queue pkt =
  let fid = Packet.flow_id pkt in
  if fid >= 0 then
    match Hashtbl.find_opt t.frecs fid with
    | None -> ()
    | Some r -> (
      (* bounded by hop count, as in [footprint]; bfc-lint: allow df-list *)
      match List.find_opt (fun f -> f.fq_gid = gid && f.fq_queue = queue) !r with
      | None -> ()
      | Some f ->
        let now = Sim.now (Runner.sim t.env) in
        f.fq_out <- Int.max 0 (f.fq_out - pkt.Packet.size);
        f.fq_last <- exposure t gid queue ~now)

(* ------------------------------------------------------------------ *)
(* Periodic tick: storm window + runtime deadlock scan *)

(* runs per detector period, not per packet; bfc-lint: control-plane *)
let storm_tick t ~now =
  let w = t.cfg.d_window in
  let horizon = w * t.cfg.d_period in
  let blast = ref 0 in
  for gid = 0 to t.n - 1 do
    let cur = port_pause_eff t gid ~now in
    let delta = cur - t.prev_cum.(gid) in
    t.prev_cum.(gid) <- cur;
    t.win_sum.(gid) <- t.win_sum.(gid) + delta - t.win.(gid).(t.win_pos);
    t.win.(gid).(t.win_pos) <- delta;
    let frac = float_of_int t.win_sum.(gid) /. float_of_int horizon in
    if t.in_storm.(gid) then begin
      if frac > t.storm_peak.(gid) then t.storm_peak.(gid) <- frac;
      if frac < t.cfg.d_storm_frac then begin
        t.storms <-
          {
            st_gid = gid;
            st_onset = t.storm_onset.(gid);
            st_duration = now - t.storm_onset.(gid);
            st_peak_frac = t.storm_peak.(gid);
          }
          :: t.storms;
        t.in_storm.(gid) <- false
      end
    end
    else if t.ticks >= w && frac >= t.cfg.d_storm_frac then begin
      t.in_storm.(gid) <- true;
      t.storm_onset.(gid) <- now;
      t.storm_peak.(gid) <- frac
    end;
    if t.in_storm.(gid) then incr blast
  done;
  if !blast > t.max_blast then t.max_blast <- !blast;
  t.win_pos <- (t.win_pos + 1) mod w

(* deadlock-scan helper, per tick; bfc-lint: control-plane *)
let cycle_edges cyc =
  match cyc with
  | [] -> []
  | first :: _ ->
    let rec pairs = function
      | a :: (b :: _ as rest) -> (a, b) :: pairs rest
      | [ last ] -> [ (last, first) ]
      | [] -> []
    in
    pairs cyc

(* runs per detector period, not per packet; bfc-lint: control-plane *)
let deadlock_tick t ~now =
  let topo = Runner.topo t.env in
  let paused = ref [] in
  Array.iter
    (fun sw ->
      let qpp = (Switch.config sw).Switch.queues_per_port in
      for e = 0 to Switch.n_ports sw - 1 do
        let is_paused =
          if Switch.pfc_paused sw ~egress:e then true
          else begin
            let any = ref false in
            for q = 0 to qpp - 1 do
              if (not !any) && Switch.queue_paused sw ~egress:e ~queue:q then any := true
            done;
            !any
          end
        in
        if is_paused then begin
          let gid = Port.gid (Switch.port sw e) in
          t.dl_mem.(gid) <- true;
          paused := gid :: !paused
        end
      done)
    (Runner.switches t.env);
  let cyc =
    if List.length !paused < 2 then None
    else begin
      let g = Deadlock.create ~n:t.n in
      List.iter
        (fun u -> List.iter (fun v -> if t.dl_mem.(v) then Deadlock.add_edge g ~src:u ~dst:v) t.succ.(u))
        !paused;
      Deadlock.find_cycle g
    end
  in
  (match cyc with
  | None ->
    t.dl_streak <- 0;
    t.dl_fp <- ""
  | Some cyc ->
    let fp = String.concat "," (List.map string_of_int (List.sort compare cyc)) in
    let tx =
      List.fold_left (fun acc gid -> acc + Port.tx_packets (Topology.port_by_gid topo gid)) 0 cyc
    in
    if fp = t.dl_fp && tx = t.dl_tx then t.dl_streak <- t.dl_streak + 1
    else begin
      t.dl_fp <- fp;
      t.dl_tx <- tx;
      t.dl_streak <- 1
    end;
    if t.dl_streak >= t.cfg.d_deadlock_hold && not (Hashtbl.mem t.dl_reported fp) then begin
      Hashtbl.add t.dl_reported fp ();
      let dangerous =
        List.for_all (fun e -> Hashtbl.mem t.dangerous e) (cycle_edges cyc)
      in
      t.deadlocks <-
        { dl_at = now; dl_cycle = cyc; dl_static_dangerous = dangerous } :: t.deadlocks
    end);
  List.iter (fun gid -> t.dl_mem.(gid) <- false) !paused

(* bfc-lint: control-plane *)
let tick t () =
  let now = Sim.now (Runner.sim t.env) in
  storm_tick t ~now;
  deadlock_tick t ~now;
  t.ticks <- t.ticks + 1

(* ------------------------------------------------------------------ *)

(* one-time tap registration; bfc-lint: control-plane *)
let attach ?(config = default_config) env =
  let topo = Runner.topo env in
  let n = Topology.total_ports topo in
  let static = Deadlock.build topo in
  let succ = Array.make n [] in
  List.iter (fun (u, v) -> succ.(u) <- v :: succ.(u)) (Deadlock.edges static);
  let dangerous = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace dangerous e ()) (Deadlock.dangerous_edges static);
  let t =
    {
      env;
      cfg = config;
      n;
      pl_cum = Array.make n 0;
      pl_open = Array.make n (-1);
      q_cum = Array.make n [||];
      q_open = Array.make n [||];
      win = Array.init n (fun _ -> Array.make config.d_window 0);
      win_sum = Array.make n 0;
      win_pos = 0;
      prev_cum = Array.make n 0;
      in_storm = Array.make n false;
      storm_onset = Array.make n 0;
      storm_peak = Array.make n 0.0;
      storms = [];
      max_blast = 0;
      succ;
      dangerous;
      dl_mem = Array.make n false;
      dl_fp = "";
      dl_tx = 0;
      dl_streak = 0;
      dl_reported = Hashtbl.create 8;
      deadlocks = [];
      frecs = Hashtbl.create 4096;
      ticks = 0;
    }
  in
  let sim = Runner.sim env in
  let tap = Sim.tap sim in
  let pool = Runner.pool env in
  (* by switch node id: the gid of each egress *)
  let gids_of = Array.make (Array.length (Topology.nodes topo)) [||] in
  Array.iter
    (fun sw ->
      let gids = Array.init (Switch.n_ports sw) (fun e -> Port.gid (Switch.port sw e)) in
      let qpp = (Switch.config sw).Switch.queues_per_port in
      Array.iter
        (fun gid ->
          t.q_cum.(gid) <- Array.make qpp 0;
          t.q_open.(gid) <- Array.make qpp (-1))
        gids;
      gids_of.(Switch.node_id sw) <- gids)
    (Runner.switches env);
  let gid ~node key = gids_of.(node).(Tap.egress key) in
  Tap.on tap Tap.Queue_pause (fun ~node key paused ->
      let now = Sim.now sim and paused = paused = 1 and queue = Tap.queue key in
      if queue < 0 then port_transition t (gid ~node key) ~now ~paused
      else queue_transition t (gid ~node key) queue ~now ~paused);
  Tap.on tap Tap.Enqueue (fun ~node key p ->
      on_enq t (gid ~node key) ~queue:(Tap.queue key) (Packet.Pool.get pool p));
  Tap.on tap Tap.Dequeue (fun ~node key p ->
      on_deq t (gid ~node key) ~queue:(Tap.queue key) (Packet.Pool.get pool p));
  Tap.on tap Tap.Reboot (fun ~node _ _ ->
      (* A reboot clears pause state without resume transitions: close
         every open span on this switch as if resumed now, and forget
         the flushed queue contents in the flow footprints. *)
      let now = Sim.now sim in
      let gids = gids_of.(node) in
      Array.iter
        (fun gid ->
          port_transition t gid ~now ~paused:false;
          Array.iteri (fun q _ -> queue_transition t gid q ~now ~paused:false) t.q_cum.(gid);
          t.dl_mem.(gid) <- true)
        gids;
      (* commutative per-record reset; bfc-lint: allow det-hashtbl-order *)
      Hashtbl.iter
        (fun _ r -> List.iter (fun f -> if t.dl_mem.(f.fq_gid) then f.fq_out <- 0) !r)
        t.frecs;
      Array.iter (fun gid -> t.dl_mem.(gid) <- false) gids);
  (* NIC uplinks: PFC pause of the whole uplink is a port-level span. *)
  Tap.on tap Tap.Nic_pause (fun ~node queue paused ->
      if queue < 0 then
        port_transition t (Port.gid (Topology.port topo node 0)) ~now:(Sim.now sim)
          ~paused:(paused = 1));
  ignore (Sim.every sim ~period:config.d_period (tick t));
  t

(* ------------------------------------------------------------------ *)

(* end-of-run aggregation; bfc-lint: control-plane *)
let report t ~flows =
  let now = Sim.now (Runner.sim t.env) in
  let closed = List.rev t.storms in
  let opened =
    let out = ref [] in
    for gid = t.n - 1 downto 0 do
      if t.in_storm.(gid) then
        out :=
          {
            st_gid = gid;
            st_onset = t.storm_onset.(gid);
            st_duration = now - t.storm_onset.(gid);
            st_peak_frac = t.storm_peak.(gid);
          }
          :: !out
    done;
    !out
  in
  let storms = closed @ opened in
  let storm_ports =
    let seen = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace seen s.st_gid ()) storms;
    Hashtbl.length seen
  in
  let victims =
    List.filter_map
      (fun (f : Flow.t) ->
        if f.Flow.is_incast || not (Flow.complete f) then None
        else begin
          let slow = Runner.slowdown t.env f in
          if slow < t.cfg.d_victim_slowdown then None
          else
            match Hashtbl.find_opt t.frecs f.Flow.id with
            | None -> None
            | Some r ->
              (* the pause must explain the slowdown: overlap at least a
                 fraction of the FCT, not just incidental (a flow slowed by
                 retransmission timeouts is not a pause victim) *)
              let floor_ns =
                max t.cfg.d_victim_min_pause
                  (int_of_float (t.cfg.d_victim_frac *. float_of_int (Flow.fct f)))
              in
              let best = ref None in
              List.iter
                (fun fq ->
                  let overlap = fq.fq_last - fq.fq_p0 in
                  if
                    fq.fq_peak <= t.cfg.d_victim_own_bytes
                    && overlap >= floor_ns
                    && (match !best with None -> true | Some (_, o) -> overlap > o)
                  then best := Some (fq, overlap))
                (List.rev !r);
              Option.map
                (fun (fq, overlap) ->
                  {
                    v_flow = f.Flow.id;
                    v_slowdown = slow;
                    v_gid = fq.fq_gid;
                    v_queue = fq.fq_queue;
                    v_pause_ns = overlap;
                  })
                !best
        end)
      flows
  in
  {
    r_storms = storms;
    r_storm_ports = storm_ports;
    r_max_blast = t.max_blast;
    r_deadlocks = List.rev t.deadlocks;
    r_victims = victims;
    r_ticks = t.ticks;
  }

(* bfc-lint: control-plane *)
let summary r =
  Printf.sprintf "storms=%d storm_ports=%d max_blast=%d deadlocks=%d dangerous=%d victims=%d"
    (List.length r.r_storms) r.r_storm_ports r.r_max_blast
    (List.length r.r_deadlocks)
    (List.length (List.filter (fun d -> d.dl_static_dangerous) r.r_deadlocks))
    (List.length r.r_victims)

(* bfc-lint: control-plane *)
let victim_p99 r =
  match r.r_victims with
  | [] -> 0.0
  | vs ->
    let s = Bfc_util.Stats.Sample.create () in
    List.iter (fun v -> Bfc_util.Stats.Sample.add s v.v_slowdown) vs;
    Bfc_util.Stats.Sample.percentile s 99.0
