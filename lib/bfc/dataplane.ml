module Packet = Bfc_net.Packet
module Flow = Bfc_net.Flow
module Switch = Bfc_switch.Switch
module Sim = Bfc_engine.Sim

type config = {
  assignment : Dqa.policy;
  table_mult : int;
  sticky_hrtt_mult : float;
  th_factor : float;
  fixed_th : int option;
  sampling : float;
  incast_label : bool;
  bitmap_period : Bfc_engine.Time.t option;
  max_upstream_q : int;
  seed : int;
}

let default_config =
  {
    assignment = Dqa.Dynamic;
    table_mult = 100;
    sticky_hrtt_mult = 2.0;
    th_factor = 1.0;
    fixed_th = None;
    sampling = 1.0;
    incast_label = false;
    bitmap_period = None;
    max_upstream_q = 256;
    seed = 1;
  }

type stats = {
  mutable pauses_sent : int;
  mutable resumes_sent : int;
  mutable packets_counted : int;
  mutable queue_collisions : int;
  mutable assignments : int;
  mutable random_assignments : int;
}

type t = {
  sw : Switch.t;
  cfg : config;
  classes : int;
  qpc : int; (* queues per class; last queue of each class is the control queue *)
  ft : Flow_table.t;
  pc : Pause_counter.t;
  dqa : Dqa.t; (* domains: egress * classes + class *)
  allow_bp : (in_port:int -> egress:int -> bool) ref;
  th : Threshold.source;
      (* per egress: Th over N_active, precomputed at attach time like the
         control-plane-populated match-action table on the hardware — the
         per-packet path does integer lookups only *)
  rng : Bfc_util.Rng.t;
  st : stats;
  occupancy : int array array; (* packets per (egress, queue), collision diag *)
}

let stats t = t.st

let config t = t.cfg

let switch t = t.sw

let pause_counters t = t.pc

let flow_table t = t.ft

let threshold t ~egress =
  Threshold.get t.th ~egress ~n_active:(Switch.n_active t.sw ~egress)

let allow_backpressure t f = t.allow_bp := f

let now t = Sim.now (Switch.sim t.sw)

let cls_of_pkt t pkt = Int.min (t.classes - 1) (Int.max 0 (Packet.prio pkt))

(* Reserved control queue of a class (ACKs and friends). *)
let ctrl_queue t ~cls = (cls * t.qpc) + t.qpc - 1

let domain t ~egress ~cls = (egress * t.classes) + cls

(* Is [queue] a data queue, i.e. subject to DQA bookkeeping? *)
let is_data_queue t ~queue = queue mod t.qpc < t.qpc - 1

let local_of_queue t ~queue = queue mod t.qpc

let cls_of_queue t ~queue = queue / t.qpc

(* --------------------------------------------------------------- *)
(* Enqueue side                                                     *)

let classify t _sw ~in_port:_ ~egress pkt =
  match Packet.kind pkt with
  | Packet.Data -> (
    let cls = cls_of_pkt t pkt in
    if t.cfg.incast_label && Packet.incast pkt then begin
      Packet.set_bp_sampled pkt true;
      cls * t.qpc (* dedicated incast queue: local 0 of the class *)
    end
    else begin
      let sampled = t.cfg.sampling >= 1.0 || Bfc_util.Rng.bernoulli t.rng t.cfg.sampling in
      Packet.set_bp_sampled pkt sampled;
      let ft = t.ft in
      let now = now t in
      let fid_hash = Flow.hash (Packet.fid pkt) in
      let e = Flow_table.slot ft ~egress ~fid_hash ~now in
      let vacant = Flow_table.vacant ft e ~now in
      if vacant then begin
        let local = Dqa.assign t.dqa ~egress:(domain t ~egress ~cls) ~fid_hash in
        t.st.assignments <- t.st.assignments + 1;
        if
          t.cfg.assignment = Dqa.Dynamic
          && not (Dqa.is_empty_queue t.dqa ~egress:(domain t ~egress ~cls) ~queue:local)
        then t.st.random_assignments <- t.st.random_assignments + 1;
        Flow_table.set_q ft e ((cls * t.qpc) + local)
      end;
      if sampled then Flow_table.set_size ft e (Flow_table.size ft e + 1);
      (* An assignment is a touch, sampled or not (§3.3.2): it holds for the
         sticky window and frees once the slot has sat idle past it. *)
      if sampled || vacant then Flow_table.set_last ft e now;
      if t.occupancy.(egress).(Flow_table.q ft e) > 0 && Flow_table.size ft e <= 1 then
        t.st.queue_collisions <- t.st.queue_collisions + 1;
      Flow_table.q ft e
    end)
  | Packet.Ack | Packet.Nack | Packet.Grant | Packet.Cnp | Packet.Credit | Packet.Credit_req ->
    ctrl_queue t ~cls:(cls_of_pkt t pkt)
  | Packet.Pause | Packet.Resume | Packet.Pause_bitmap | Packet.Hop_credit | Packet.Pfc ->
    (* never reaches the data path *)
    ctrl_queue t ~cls:0

let make_ctrl t kind =
  Packet.Pool.acquire (Switch.pool t.sw) kind ~flow:Packet.no_flow ~dst:(-1)
    ~size:Packet.ctrl_bytes ~seq:0

let send_pause t ~egress ~upstream_q kind =
  let pkt = make_ctrl t kind in
  Packet.set_ctrl_a pkt upstream_q;
  Switch.send_ctrl t.sw ~egress pkt;
  match kind with
  | Packet.Pause -> t.st.pauses_sent <- t.st.pauses_sent + 1
  | Packet.Resume -> t.st.resumes_sent <- t.st.resumes_sent + 1
  | _ -> ()

let on_enqueue t _sw ~in_port ~egress ~queue pkt =
  if Packet.kind pkt = Packet.Data then begin
    if is_data_queue t ~queue then begin
      Dqa.mark_occupied t.dqa
        ~egress:(domain t ~egress ~cls:(cls_of_queue t ~queue))
        ~queue:(local_of_queue t ~queue);
      t.occupancy.(egress).(queue) <- t.occupancy.(egress).(queue) + 1
    end;
    if
      Packet.bp_sampled pkt
      && in_port >= 0
      && Packet.upstream_q pkt >= 0
      && !(t.allow_bp) ~in_port ~egress
    then begin
      let q = Switch.queue t.sw ~egress ~queue in
      if q.Bfc_switch.Fifo.bytes > threshold t ~egress then begin
        Packet.set_bp_counted pkt true;
        Packet.set_bp_upq pkt (Packet.upstream_q pkt);
        t.st.packets_counted <- t.st.packets_counted + 1;
        match Pause_counter.incr t.pc ~ingress:in_port ~upstream_q:(Packet.upstream_q pkt) with
        | Pause_counter.Went_up ->
          send_pause t ~egress:in_port ~upstream_q:(Packet.upstream_q pkt) Packet.Pause
        | Pause_counter.Went_down | Pause_counter.No_change -> ()
      end
    end
  end

(* --------------------------------------------------------------- *)
(* Dequeue side (the recirculated header's work)                     *)

let on_dequeue t _sw ~egress ~queue pkt =
  if Packet.kind pkt = Packet.Data then begin
    if Packet.bp_counted pkt then begin
      (match
         Pause_counter.decr t.pc ~ingress:(Packet.bp_in_port pkt) ~upstream_q:(Packet.bp_upq pkt)
       with
      | Pause_counter.Went_down ->
        send_pause t ~egress:(Packet.bp_in_port pkt) ~upstream_q:(Packet.bp_upq pkt) Packet.Resume
      | Pause_counter.Went_up | Pause_counter.No_change -> ());
      Packet.set_bp_counted pkt false
    end;
    let incast_bypass = t.cfg.incast_label && Packet.incast pkt in
    if Packet.bp_sampled pkt && not incast_bypass then begin
      let now = now t in
      let e = Flow_table.slot t.ft ~egress ~fid_hash:(Flow.hash (Packet.fid pkt)) ~now in
      Flow_table.set_size t.ft e (Int.max 0 (Flow_table.size t.ft e - 1));
      Flow_table.set_last t.ft e now
    end;
    if is_data_queue t ~queue then begin
      t.occupancy.(egress).(queue) <- Int.max 0 (t.occupancy.(egress).(queue) - 1);
      let q = Switch.queue t.sw ~egress ~queue in
      let incast_queue = t.cfg.incast_label && local_of_queue t ~queue = 0 in
      if Bfc_switch.Fifo.is_empty q && not incast_queue then
        Dqa.mark_empty t.dqa
          ~egress:(domain t ~egress ~cls:(cls_of_queue t ~queue))
          ~queue:(local_of_queue t ~queue)
    end;
    (* Tell the next hop which of our queues this packet came from. *)
    Packet.set_upstream_q pkt queue
  end

let on_drop t _sw ~in_port:_ ~egress ~queue:_ pkt =
  (* Undo the enqueue-side flow table increment. *)
  if Packet.kind pkt = Packet.Data then begin
    let incast_bypass = t.cfg.incast_label && Packet.incast pkt in
    if Packet.bp_sampled pkt && not incast_bypass then begin
      let e = Flow_table.slot t.ft ~egress ~fid_hash:(Flow.hash (Packet.fid pkt)) ~now:(now t) in
      Flow_table.set_size t.ft e (Int.max 0 (Flow_table.size t.ft e - 1))
    end
  end

(* --------------------------------------------------------------- *)
(* Reacting side                                                     *)

let apply_ctrl ~set_paused st ~pool ~port ~n_queues pkt =
  match Packet.kind pkt with
  | Packet.Pause ->
    if Packet.ctrl_a pkt >= 0 && Packet.ctrl_a pkt < n_queues then
      set_paused st ~port ~queue:(Packet.ctrl_a pkt) true
  | Packet.Resume ->
    if Packet.ctrl_a pkt >= 0 && Packet.ctrl_a pkt < n_queues then
      set_paused st ~port ~queue:(Packet.ctrl_a pkt) false
  | Packet.Pause_bitmap ->
    let ints = Packet.Pool.bitmap pool pkt in
    for q = 0 to n_queues - 1 do
      let want = ref false in
      for i = 0 to Array.length ints - 1 do
        if ints.(i) = q then want := true
      done;
      set_paused st ~port ~queue:q !want
    done
  | _ -> ()

let set_switch_queue_paused sw ~port ~queue paused =
  Switch.set_queue_paused sw ~egress:port ~queue paused

(* Wipe the dataplane program's state alongside a switch reboot: the flow
   table, pause counters, DQA bitmaps and occupancy diagnostics all restart
   from scratch (the reloaded P4 program has no memory of the old run). *)
(* bfc-lint: control-plane *)
let reset t =
  Flow_table.reset t.ft;
  Pause_counter.reset t.pc;
  Dqa.reset t.dqa;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.occupancy;
  if t.cfg.incast_label then
    for d = 0 to (Switch.n_ports t.sw * t.classes) - 1 do
      Dqa.mark_occupied t.dqa ~egress:d ~queue:0
    done

let on_ctrl t _sw ~in_port pkt =
  match Packet.kind pkt with
  | Packet.Pause | Packet.Resume | Packet.Pause_bitmap ->
    let n_queues = Switch.(config t.sw).queues_per_port in
    apply_ctrl ~set_paused:set_switch_queue_paused t.sw ~pool:(Switch.pool t.sw) ~port:in_port
      ~n_queues pkt;
    true
  | _ -> false

(* bfc-lint: control-plane *)
let start_bitmap_refresh t period =
  let sim = Switch.sim t.sw in
  ignore
    (Sim.every sim ~period (fun () ->
         for ingress = 0 to Switch.n_ports t.sw - 1 do
           let paused = Pause_counter.paused_queues t.pc ~ingress in
           let pkt = make_ctrl t Packet.Pause_bitmap in
           Packet.Pool.set_bitmap (Switch.pool t.sw) pkt (Array.of_list paused);
           Switch.send_ctrl t.sw ~egress:ingress pkt
         done))

(* bfc-lint: control-plane *)
let attach sw cfg =
  let scfg = Switch.config sw in
  let nq = scfg.Switch.queues_per_port in
  let classes = max 1 scfg.Switch.classes in
  if nq mod classes <> 0 then invalid_arg "Dataplane.attach: queues not divisible by classes";
  let qpc = nq / classes in
  if qpc < 2 then invalid_arg "Dataplane.attach: need at least 2 queues per class";
  let n_ports = Switch.n_ports sw in
  let rng = Bfc_util.Rng.create (cfg.seed + (Switch.node_id sw * 7919)) in
  let ft =
    Flow_table.create ~egresses:n_ports ~queues_per_port:nq ~mult:cfg.table_mult
      ~sticky:(Threshold.sticky_window sw ~mult:cfg.sticky_hrtt_mult)
  in
  let t =
    {
      sw;
      cfg;
      classes;
      qpc;
      ft;
      pc = Pause_counter.create ~ingresses:n_ports ~max_upstream_q:cfg.max_upstream_q;
      dqa =
        Dqa.create ~egresses:(n_ports * classes) ~queues:(qpc - 1) ~policy:cfg.assignment ~rng;
      allow_bp = ref (fun ~in_port:_ ~egress:_ -> true);
      th = Threshold.source_for_switch sw ~fixed_th:cfg.fixed_th ~factor:cfg.th_factor;
      rng;
      st =
        {
          pauses_sent = 0;
          resumes_sent = 0;
          packets_counted = 0;
          queue_collisions = 0;
          assignments = 0;
          random_assignments = 0;
        };
      occupancy = Array.init n_ports (fun _ -> Array.make nq 0);
    }
  in
  if cfg.incast_label then
    for d = 0 to (n_ports * classes) - 1 do
      Dqa.mark_occupied t.dqa ~egress:d ~queue:0
    done;
  let hk = Switch.hooks sw in
  hk.Switch.classify <- classify t;
  hk.Switch.on_enqueue <- on_enqueue t;
  hk.Switch.on_dequeue <- on_dequeue t;
  hk.Switch.on_drop <- on_drop t;
  hk.Switch.on_ctrl <- on_ctrl t;
  (match cfg.bitmap_period with None -> () | Some p -> start_bitmap_refresh t p);
  t
