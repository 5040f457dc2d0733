(* Lowering: a validated pipeline becomes five flat op arrays, one per
   switch hook, interpreted by integer-only executors over the same flat
   state the hand-written dataplanes use (Flow_table / Pause_counter /
   Dqa / int arrays). No per-packet closures, no lists, no float math on
   the hot path: attach resolves every action to a variant constructor and
   the executors dispatch over them in a [for] loop.

   Each op's body is the corresponding fragment of Dataplane /
   Credit_dataplane, in the same order the hand-written hooks run them and
   drawing from the same seeded RNG stream — the differential test holds
   the two implementations to byte-identical output. *)

module Packet = Bfc_net.Packet
module Flow = Bfc_net.Flow
module Port = Bfc_net.Port
module Node = Bfc_net.Node
module Switch = Bfc_switch.Switch
module Fifo = Bfc_switch.Fifo
module Sim = Bfc_engine.Sim
module Rng = Bfc_util.Rng
module Dqa = Bfc_core.Dqa
module Flow_table = Bfc_core.Flow_table
module Pause_counter = Bfc_core.Pause_counter
module Threshold = Bfc_core.Threshold
module Dataplane = Bfc_core.Dataplane

exception Infeasible of Validate.diag list

(* Resolved constant-time ops. One constructor per compilable Ir.action;
   the parameters an action carries (sampling rate, threshold source,
   sticky window) live in [t], resolved once at attach time. *)
type op =
  | O_incast_relabel
  | O_sample
  | O_flow_lookup
  | O_assign_queue
  | O_bump_size
  | O_collision_probe
  | O_mark_occupied
  | O_threshold_mark
  | O_unmark_resume
  | O_dec_size
  | O_mark_empty
  | O_stamp_upstream
  | O_drop_undo
  | O_apply_pause
  | O_credit_assign
  | O_note_upstream
  | O_credit_mark_occupied
  | O_credit_regate
  | O_grant_back
  | O_credit_consume
  | O_credit_dec_size
  | O_credit_mark_empty
  | O_credit_replenish

type t = {
  sw : Switch.t;
  pipeline : Ir.pipeline;
  (* parameters resolved from the pipeline's actions *)
  sampling : float; (* compared with >=, fed to Rng.bernoulli: no float ops here *)
  incast_label : bool;
  classes : int;
  qpc : int;
  sticky : Bfc_engine.Time.t;
  th : Threshold.source;
  (* flat dataplane state, identical to the hand-written programs *)
  ft : Flow_table.t;
  pc : Pause_counter.t;
  dqa : Dqa.t;
  rng : Rng.t;
  st : Dataplane.stats;
  occupancy : int array array;
  allow_bp : (in_port:int -> egress:int -> bool) ref;
  balances : int array array; (* credit: per (egress, queue) byte balance *)
  uncredited : bool array;
  mutable credits_sent : int;
  (* the compiled programs *)
  ops_classify : op array;
  ops_enqueue : op array;
  ops_dequeue : op array;
  ops_drop : op array;
  ops_ctrl : op array;
  (* per-packet metadata carried between ops of one hook invocation (the
     PHV scratch registers); mutable scalars, never allocated per packet *)
  mutable pmd_entry : Flow_table.entry;
  mutable pmd_q : int;
  mutable pmd_cls : int;
  mutable pmd_done : bool;
  mutable pmd_handled : bool;
}

let switch t = t.sw

let pipeline t = t.pipeline

let stats t = t.st

let credits_sent t = t.credits_sent

let balance t ~egress ~queue = t.balances.(egress).(queue)

let allow_backpressure t f = t.allow_bp := f

let now t = Sim.now (Switch.sim t.sw)

let cls_of_flow t flow = min (t.classes - 1) (max 0 flow.Flow.prio_class)

let cls_of_pkt t pkt = min (t.classes - 1) (max 0 pkt.Packet.prio)

let ctrl_queue t ~cls = (cls * t.qpc) + t.qpc - 1

let domain t ~egress ~cls = (egress * t.classes) + cls

let is_data_queue t ~queue = queue mod t.qpc < t.qpc - 1

let local_of_queue t ~queue = queue mod t.qpc

let cls_of_queue t ~queue = queue / t.qpc

let threshold t ~egress =
  Threshold.get t.th ~egress ~n_active:(Switch.n_active t.sw ~egress)

let make_ctrl t kind =
  match Switch.pool t.sw with
  | Some p ->
    Packet.Pool.acquire p kind ~flow:None ~src:(Switch.node_id t.sw) ~dst:(-1)
      ~size:Packet.ctrl_bytes ~seq:0
  | None ->
    Packet.make ~sim:(Switch.sim t.sw) kind ~src:(Switch.node_id t.sw) ~dst:(-1)
      ~size:Packet.ctrl_bytes ()

let send_pause t ~egress ~upstream_q kind =
  let pkt = make_ctrl t kind in
  pkt.Packet.ctrl_a <- upstream_q;
  Switch.send_ctrl t.sw ~egress pkt;
  match kind with
  | Packet.Pause -> t.st.Dataplane.pauses_sent <- t.st.Dataplane.pauses_sent + 1
  | Packet.Resume -> t.st.Dataplane.resumes_sent <- t.st.Dataplane.resumes_sent + 1
  | _ -> ()

let grant_back t ~in_port ~upstream_q ~bytes =
  if in_port >= 0 && upstream_q >= 0 then begin
    let pkt = make_ctrl t Packet.Hop_credit in
    pkt.Packet.ctrl_a <- upstream_q;
    pkt.Packet.ctrl_b <- bytes;
    t.credits_sent <- t.credits_sent + 1;
    Switch.send_ctrl t.sw ~egress:in_port pkt
  end

(* --------------------------------------------------------------- *)
(* Hook executors. Each runs its op array in pipeline order inside a
   kind-dispatching preamble shared by the BFC and credit programs (with
   classes = 1 the BFC class helpers collapse to the credit layout, so
   the control-queue arithmetic is common). *)

let run_classify t _sw ~in_port:_ ~egress pkt =
  match pkt.Packet.kind with
  | Packet.Data ->
    let flow = Packet.flow_exn pkt ~at:(now t) in
    let cls = cls_of_flow t flow in
    t.pmd_cls <- cls;
    t.pmd_done <- false;
    let ops = t.ops_classify in
    for i = 0 to Array.length ops - 1 do
      if not t.pmd_done then
        match ops.(i) with
        | O_incast_relabel ->
          if flow.Flow.is_incast then begin
            pkt.Packet.bp_sampled <- true;
            t.pmd_q <- cls * t.qpc;
            t.pmd_done <- true
          end
        | O_sample ->
          let sampled = t.sampling >= 1.0 || Rng.bernoulli t.rng t.sampling in
          pkt.Packet.bp_sampled <- sampled
        | O_flow_lookup ->
          t.pmd_entry <- Flow_table.entry t.ft ~egress ~fid_hash:(Flow.hash flow)
        | O_assign_queue ->
          let e = t.pmd_entry in
          let stale = now t - e.Flow_table.last > t.sticky in
          if e.Flow_table.size = 0 && (e.Flow_table.q < 0 || stale) then begin
            let local =
              Dqa.assign t.dqa ~egress:(domain t ~egress ~cls) ~fid_hash:(Flow.hash flow)
            in
            t.st.Dataplane.assignments <- t.st.Dataplane.assignments + 1;
            if
              Dqa.policy t.dqa = Dqa.Dynamic
              && not (Dqa.is_empty_queue t.dqa ~egress:(domain t ~egress ~cls) ~queue:local)
            then t.st.Dataplane.random_assignments <- t.st.Dataplane.random_assignments + 1;
            e.Flow_table.q <- (cls * t.qpc) + local
          end;
          t.pmd_q <- e.Flow_table.q
        | O_bump_size ->
          if pkt.Packet.bp_sampled then begin
            let e = t.pmd_entry in
            e.Flow_table.size <- e.Flow_table.size + 1;
            e.Flow_table.last <- now t
          end
        | O_collision_probe ->
          let e = t.pmd_entry in
          if t.occupancy.(egress).(e.Flow_table.q) > 0 && e.Flow_table.size <= 1 then
            t.st.Dataplane.queue_collisions <- t.st.Dataplane.queue_collisions + 1
        | O_credit_assign ->
          let e = Flow_table.entry t.ft ~egress ~fid_hash:(Flow.hash flow) in
          let stale = now t - e.Flow_table.last > t.sticky in
          if e.Flow_table.size = 0 && (e.Flow_table.q < 0 || stale) then
            e.Flow_table.q <-
              Dqa.assign t.dqa ~egress:(domain t ~egress ~cls) ~fid_hash:(Flow.hash flow);
          e.Flow_table.size <- e.Flow_table.size + 1;
          e.Flow_table.last <- now t;
          t.pmd_entry <- e;
          t.pmd_q <- e.Flow_table.q
        | _ -> ()
    done;
    t.pmd_q
  | Packet.Ack | Packet.Nack | Packet.Grant | Packet.Cnp | Packet.Credit | Packet.Credit_req ->
    ctrl_queue t ~cls:(cls_of_pkt t pkt)
  | Packet.Pause | Packet.Resume | Packet.Pause_bitmap | Packet.Hop_credit | Packet.Pfc ->
    ctrl_queue t ~cls:0

let run_enqueue t _sw ~in_port ~egress ~queue pkt =
  if pkt.Packet.kind = Packet.Data then begin
    let ops = t.ops_enqueue in
    for i = 0 to Array.length ops - 1 do
      match ops.(i) with
      | O_mark_occupied ->
        if is_data_queue t ~queue then begin
          Dqa.mark_occupied t.dqa
            ~egress:(domain t ~egress ~cls:(cls_of_queue t ~queue))
            ~queue:(local_of_queue t ~queue);
          t.occupancy.(egress).(queue) <- t.occupancy.(egress).(queue) + 1
        end
      | O_threshold_mark ->
        if
          pkt.Packet.bp_sampled
          && in_port >= 0
          && pkt.Packet.upstream_q >= 0
          && !(t.allow_bp) ~in_port ~egress
        then begin
          let q = Switch.queue t.sw ~egress ~queue in
          if q.Fifo.bytes > threshold t ~egress then begin
            pkt.Packet.bp_counted <- true;
            pkt.Packet.bp_upq <- pkt.Packet.upstream_q;
            t.st.Dataplane.packets_counted <- t.st.Dataplane.packets_counted + 1;
            match Pause_counter.incr t.pc ~ingress:in_port ~upstream_q:pkt.Packet.upstream_q with
            | Pause_counter.Went_up ->
              send_pause t ~egress:in_port ~upstream_q:pkt.Packet.upstream_q Packet.Pause
            | Pause_counter.Went_down | Pause_counter.No_change -> ()
          end
        end
      | O_note_upstream -> pkt.Packet.bp_upq <- pkt.Packet.upstream_q
      | O_credit_mark_occupied ->
        if is_data_queue t ~queue then
          Dqa.mark_occupied t.dqa
            ~egress:(domain t ~egress ~cls:(cls_of_queue t ~queue))
            ~queue:(local_of_queue t ~queue)
      | O_credit_regate ->
        if not t.uncredited.(egress) then begin
          let q = Switch.queue t.sw ~egress ~queue in
          let next = Fifo.head_size q in
          let blocked = next > 0 && t.balances.(egress).(queue) < next in
          Switch.set_queue_paused t.sw ~egress ~queue blocked
        end
      | _ -> ()
    done
  end

let run_dequeue t _sw ~egress ~queue pkt =
  if pkt.Packet.kind = Packet.Data then begin
    let flow = Packet.flow_exn pkt ~at:(now t) in
    let ops = t.ops_dequeue in
    for i = 0 to Array.length ops - 1 do
      match ops.(i) with
      | O_unmark_resume ->
        if pkt.Packet.bp_counted then begin
          (match
             Pause_counter.decr t.pc ~ingress:pkt.Packet.bp_in_port ~upstream_q:pkt.Packet.bp_upq
           with
          | Pause_counter.Went_down ->
            send_pause t ~egress:pkt.Packet.bp_in_port ~upstream_q:pkt.Packet.bp_upq Packet.Resume
          | Pause_counter.Went_up | Pause_counter.No_change -> ());
          pkt.Packet.bp_counted <- false
        end
      | O_dec_size ->
        let incast_bypass = t.incast_label && flow.Flow.is_incast in
        if pkt.Packet.bp_sampled && not incast_bypass then begin
          let e = Flow_table.entry t.ft ~egress ~fid_hash:(Flow.hash flow) in
          e.Flow_table.size <- max 0 (e.Flow_table.size - 1);
          e.Flow_table.last <- now t
        end
      | O_mark_empty ->
        if is_data_queue t ~queue then begin
          t.occupancy.(egress).(queue) <- max 0 (t.occupancy.(egress).(queue) - 1);
          let q = Switch.queue t.sw ~egress ~queue in
          let incast_queue = t.incast_label && local_of_queue t ~queue = 0 in
          if Fifo.is_empty q && not incast_queue then
            Dqa.mark_empty t.dqa
              ~egress:(domain t ~egress ~cls:(cls_of_queue t ~queue))
              ~queue:(local_of_queue t ~queue)
        end
      | O_stamp_upstream -> pkt.Packet.upstream_q <- queue
      | O_grant_back ->
        grant_back t ~in_port:pkt.Packet.bp_in_port ~upstream_q:pkt.Packet.bp_upq
          ~bytes:pkt.Packet.size
      | O_credit_consume ->
        if not t.uncredited.(egress) then begin
          let q = Switch.queue t.sw ~egress ~queue in
          let next = Fifo.head_size q in
          t.balances.(egress).(queue) <- t.balances.(egress).(queue) - pkt.Packet.size;
          if next > 0 && t.balances.(egress).(queue) < next then
            Switch.set_queue_paused t.sw ~egress ~queue true
        end
      | O_credit_dec_size ->
        let e = Flow_table.entry t.ft ~egress ~fid_hash:(Flow.hash flow) in
        e.Flow_table.size <- max 0 (e.Flow_table.size - 1);
        e.Flow_table.last <- now t
      | O_credit_mark_empty ->
        if is_data_queue t ~queue then begin
          let q = Switch.queue t.sw ~egress ~queue in
          if Fifo.is_empty q then
            Dqa.mark_empty t.dqa
              ~egress:(domain t ~egress ~cls:(cls_of_queue t ~queue))
              ~queue:(local_of_queue t ~queue)
        end
      | _ -> ()
    done
  end

let run_drop t _sw ~in_port:_ ~egress ~queue:_ pkt =
  if pkt.Packet.kind = Packet.Data then begin
    let flow = Packet.flow_exn pkt ~at:(now t) in
    let ops = t.ops_drop in
    for i = 0 to Array.length ops - 1 do
      match ops.(i) with
      | O_drop_undo ->
        let incast_bypass = t.incast_label && flow.Flow.is_incast in
        if pkt.Packet.bp_sampled && not incast_bypass then begin
          let e = Flow_table.entry t.ft ~egress ~fid_hash:(Flow.hash flow) in
          e.Flow_table.size <- max 0 (e.Flow_table.size - 1)
        end
      | _ -> ()
    done
  end

let run_ctrl t _sw ~in_port pkt =
  t.pmd_handled <- false;
  let ops = t.ops_ctrl in
  for i = 0 to Array.length ops - 1 do
    match ops.(i) with
    | O_apply_pause -> (
      match pkt.Packet.kind with
      | Packet.Pause | Packet.Resume | Packet.Pause_bitmap ->
        let n_queues = Switch.(config t.sw).Switch.queues_per_port in
        Dataplane.apply_ctrl ~set_paused:Dataplane.set_switch_queue_paused t.sw ~port:in_port
          ~n_queues pkt;
        t.pmd_handled <- true
      | _ -> ())
    | O_credit_replenish -> (
      match pkt.Packet.kind with
      | Packet.Hop_credit ->
        let queue = pkt.Packet.ctrl_a in
        if queue >= 0 && queue < Switch.(config t.sw).Switch.queues_per_port then begin
          let q = Switch.queue t.sw ~egress:in_port ~queue in
          let next = Fifo.head_size q in
          t.balances.(in_port).(queue) <- t.balances.(in_port).(queue) + pkt.Packet.ctrl_b;
          if next > 0 && t.balances.(in_port).(queue) >= next then
            Switch.set_queue_paused t.sw ~egress:in_port ~queue false
        end;
        t.pmd_handled <- true
      | _ -> ())
    | _ -> ()
  done;
  t.pmd_handled

(* --------------------------------------------------------------- *)
(* Control-plane side: validation, parameter extraction, lowering.    *)

(* bfc-lint: control-plane *)
let start_bitmap_refresh t period =
  let sim = Switch.sim t.sw in
  ignore
    (Sim.every sim ~period (fun () ->
         for ingress = 0 to Switch.n_ports t.sw - 1 do
           let paused = Pause_counter.paused_queues t.pc ~ingress in
           let pkt = make_ctrl t Packet.Pause_bitmap in
           pkt.Packet.ints <- Array.of_list paused;
           Switch.send_ctrl t.sw ~egress:ingress pkt
         done))

(* bfc-lint: control-plane *)
let actions p =
  List.concat_map (fun (s : Ir.stage) -> s.Ir.s_actions) p.Ir.p_stages

(* bfc-lint: control-plane *)
let lower_action (a : Ir.action) : op =
  match a with
  | Ir.Incast_relabel -> O_incast_relabel
  | Ir.Sample _ -> O_sample
  | Ir.Flow_lookup -> O_flow_lookup
  | Ir.Assign_queue _ -> O_assign_queue
  | Ir.Bump_flow_size _ -> O_bump_size
  | Ir.Collision_probe -> O_collision_probe
  | Ir.Mark_occupied -> O_mark_occupied
  | Ir.Threshold_mark _ -> O_threshold_mark
  | Ir.Unmark_resume -> O_unmark_resume
  | Ir.Dec_flow_size _ -> O_dec_size
  | Ir.Mark_empty -> O_mark_empty
  | Ir.Stamp_upstream_q -> O_stamp_upstream
  | Ir.Drop_undo_size -> O_drop_undo
  | Ir.Apply_pause -> O_apply_pause
  | Ir.Credit_assign _ -> O_credit_assign
  | Ir.Note_upstream -> O_note_upstream
  | Ir.Credit_mark_occupied -> O_credit_mark_occupied
  | Ir.Credit_regate -> O_credit_regate
  | Ir.Grant_back -> O_grant_back
  | Ir.Credit_consume -> O_credit_consume
  | Ir.Credit_dec_size _ -> O_credit_dec_size
  | Ir.Credit_mark_empty -> O_credit_mark_empty
  | Ir.Credit_replenish -> O_credit_replenish
  | Ir.Float_compute _ | Ir.Unbounded_loop _ | Ir.Linked_scan _ | Ir.Debug_log _ ->
    invalid_arg "Compile.lower_action: infeasible action survived validation"

(* bfc-lint: control-plane *)
let ops_for p hook =
  Array.of_list
    (List.concat_map
       (fun (s : Ir.stage) ->
         if s.Ir.s_hook = hook then List.map lower_action s.Ir.s_actions else [])
       p.Ir.p_stages)

(* bfc-lint: control-plane *)
let attach (p : Ir.pipeline) sw =
  let diags = Validate.check p in
  if Validate.has_errors diags then raise (Infeasible (Validate.errors diags));
  let m = p.Ir.p_meta in
  let scfg = Switch.config sw in
  let nq = scfg.Switch.queues_per_port in
  let n_ports = Switch.n_ports sw in
  if m.Ir.m_ports <> n_ports then
    invalid_arg "Compile.attach: pipeline compiled for a different port count";
  if m.Ir.m_queues_per_port <> nq then
    invalid_arg "Compile.attach: pipeline compiled for a different queue count";
  let acts = actions p in
  (* stub actions (Float_compute &c.) have no lowering: even when their
     diagnostic is only a warning (DF005), the pipeline cannot compile *)
  let has_stub =
    List.exists
      (function
        | Ir.Float_compute _ | Ir.Unbounded_loop _ | Ir.Linked_scan _ | Ir.Debug_log _ -> true
        | _ -> false)
      acts
  in
  if has_stub then raise (Infeasible diags);
  let is_credit =
    List.exists (function Ir.Credit_assign _ -> true | _ -> false) acts
  in
  let has_assign =
    is_credit || List.exists (function Ir.Assign_queue _ -> true | _ -> false) acts
  in
  if not has_assign then
    invalid_arg "Compile.attach: pipeline has no queue-assignment action";
  let classes = if is_credit then 1 else m.Ir.m_classes in
  if (not is_credit) && max 1 scfg.Switch.classes <> classes then
    invalid_arg "Compile.attach: pipeline compiled for a different class count";
  if nq mod classes <> 0 then invalid_arg "Compile.attach: queues not divisible by classes";
  let qpc = nq / classes in
  if qpc < 2 then invalid_arg "Compile.attach: need at least 2 queues per class";
  let sampling =
    List.fold_left
      (fun acc a -> match a with Ir.Sample { rate; _ } -> rate | _ -> acc)
      1.0 acts
  in
  let incast_label = List.exists (function Ir.Incast_relabel -> true | _ -> false) acts in
  let policy =
    List.fold_left
      (fun acc a -> match a with Ir.Assign_queue { policy; _ } -> policy | _ -> acc)
      Dqa.Dynamic acts
  in
  let sticky_mult =
    List.fold_left
      (fun acc a ->
        match a with
        | Ir.Assign_queue { sticky_hrtt_mult; _ } | Ir.Credit_assign { sticky_hrtt_mult; _ } ->
          sticky_hrtt_mult
        | _ -> acc)
      2.0 acts
  in
  let fixed_th, th_factor =
    List.fold_left
      (fun acc a ->
        match a with
        | Ir.Threshold_mark { th = Ir.Th_fixed b } -> (Some b, snd acc)
        | Ir.Threshold_mark { th = Ir.Th_table { factor } } -> (None, factor)
        | _ -> acc)
      (Some max_int, 1.0) acts
  in
  let balance_init =
    List.fold_left
      (fun acc (s : Ir.stage) ->
        List.fold_left
          (fun acc (r : Ir.register) -> if r.Ir.r_name = "balances" then r.Ir.r_init else acc)
          acc s.Ir.s_registers)
      0 p.Ir.p_stages
  in
  let seed_stride = if is_credit then 104_729 else 7919 in
  let rng = Rng.create (m.Ir.m_seed + (Switch.node_id sw * seed_stride)) in
  let t =
    {
      sw;
      pipeline = p;
      sampling;
      incast_label;
      classes;
      qpc;
      sticky = Threshold.sticky_window sw ~mult:sticky_mult;
      th = Threshold.source_for_switch sw ~fixed_th ~factor:th_factor;
      ft =
        Flow_table.create ~egresses:n_ports ~queues_per_port:nq ~mult:m.Ir.m_table_mult;
      pc = Pause_counter.create ~ingresses:n_ports ~max_upstream_q:m.Ir.m_max_upstream_q;
      dqa = Dqa.create ~egresses:(n_ports * classes) ~queues:(qpc - 1) ~policy ~rng;
      rng;
      st =
        {
          Dataplane.pauses_sent = 0;
          resumes_sent = 0;
          packets_counted = 0;
          queue_collisions = 0;
          assignments = 0;
          random_assignments = 0;
        };
      occupancy = Array.init n_ports (fun _ -> Array.make nq 0);
      allow_bp = ref (fun ~in_port:_ ~egress:_ -> true);
      balances = Array.init n_ports (fun _ -> Array.make nq balance_init);
      uncredited =
        Array.init n_ports (fun e -> (Port.peer (Switch.port sw e)).Node.kind = Node.Host);
      credits_sent = 0;
      ops_classify = ops_for p Ir.H_classify;
      ops_enqueue = ops_for p Ir.H_enqueue;
      ops_dequeue = ops_for p Ir.H_dequeue;
      ops_drop = ops_for p Ir.H_drop;
      ops_ctrl = ops_for p Ir.H_ctrl;
      pmd_entry = { Flow_table.q = -1; size = 0; last = 0 };
      pmd_q = 0;
      pmd_cls = 0;
      pmd_done = false;
      pmd_handled = false;
    }
  in
  if incast_label then
    for d = 0 to (n_ports * classes) - 1 do
      Dqa.mark_occupied t.dqa ~egress:d ~queue:0
    done;
  let hk = Switch.hooks sw in
  if Array.length t.ops_classify > 0 then hk.Switch.classify <- run_classify t;
  if Array.length t.ops_enqueue > 0 then hk.Switch.on_enqueue <- run_enqueue t;
  if Array.length t.ops_dequeue > 0 then hk.Switch.on_dequeue <- run_dequeue t;
  if Array.length t.ops_drop > 0 then hk.Switch.on_drop <- run_drop t;
  if Array.length t.ops_ctrl > 0 then hk.Switch.on_ctrl <- run_ctrl t;
  (match m.Ir.m_bitmap_period with None -> () | Some period -> start_bitmap_refresh t period);
  t

(* bfc-lint: control-plane *)
let attach_bfc sw (cfg : Dataplane.config) =
  let scfg = Switch.config sw in
  attach
    (Bfc_pipeline.bfc ~ports:(Switch.n_ports sw) ~queues_per_port:scfg.Switch.queues_per_port
       ~classes:(max 1 scfg.Switch.classes) cfg)
    sw

(* bfc-lint: control-plane *)
let attach_credit sw (cfg : Bfc_core.Credit_dataplane.config) =
  let scfg = Switch.config sw in
  attach
    (Bfc_pipeline.credit ~ports:(Switch.n_ports sw)
       ~queues_per_port:scfg.Switch.queues_per_port cfg)
    sw

(* Wipe compiled-program state on switch reboot, mirroring
   Dataplane.reset (the reloaded program has no memory of the old run). *)
(* bfc-lint: control-plane *)
let reset t =
  Flow_table.reset t.ft;
  Pause_counter.reset t.pc;
  Dqa.reset t.dqa;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.occupancy;
  if t.incast_label then
    for d = 0 to (Switch.n_ports t.sw * t.classes) - 1 do
      Dqa.mark_occupied t.dqa ~egress:d ~queue:0
    done
