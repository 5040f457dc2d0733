module Packet = Bfc_net.Packet
module Switch = Bfc_switch.Switch
module Sim = Bfc_engine.Sim

let credit_cap = 16

(* Typed resume dispatch ([cls_xpass_resume]): each [attach] registers an
   entry in the per-sim registry; [a0] names the attachment, [a1] the
   egress. The executor replays the staleness check — a resume armed
   before a later transmission slot is a no-op. *)

type att = { xsw : Switch.t; xnext_ok : int array; xcredit_q : int }

type reg = { mutable aarr : att array; mutable an : int }

type Bfc_engine.Sim.user += Xpass_reg of reg

let resume_exec st a0 a1 =
  match st with
  | Xpass_reg r ->
    let a = Array.unsafe_get r.aarr a0 in
    if Sim.now (Switch.sim a.xsw) >= a.xnext_ok.(a1) then
      Switch.set_queue_paused a.xsw ~egress:a1 ~queue:a.xcredit_q false
  | _ -> invalid_arg "Xpass_switch.resume_exec: foreign class state"

let registry sim =
  match Sim.class_state sim ~cls:Sim.cls_xpass_resume with
  | Some (Xpass_reg r) -> r
  | _ ->
    let r = { aarr = [||]; an = 0 } in
    Sim.register_class sim ~cls:Sim.cls_xpass_resume ~state:(Xpass_reg r) ~exec:resume_exec;
    r

let attach sw ~mtu_wire =
  let cfg = Switch.config sw in
  let credit_q = cfg.Switch.queues_per_port - 1 in
  let sim = Switch.sim sw in
  let n = Switch.n_ports sw in
  let next_ok = Array.make n 0 in
  let r = registry sim in
  let aidx = r.an in
  let a = { xsw = sw; xnext_ok = next_ok; xcredit_q = credit_q } in
  if r.an = Array.length r.aarr then begin
    let ncap = Int.max 8 (2 * r.an) in
    let na = Array.make ncap a in
    Array.blit r.aarr 0 na 0 r.an;
    r.aarr <- na
  end;
  r.aarr.(r.an) <- a;
  r.an <- r.an + 1;
  let hk = Switch.hooks sw in
  hk.Switch.classify <-
    (fun _ ~in_port:_ ~egress:_ pkt ->
      match Packet.kind pkt with
      | Packet.Credit -> credit_q
      | _ -> Int.min (Packet.prio pkt) (credit_q - 1));
  hk.Switch.admit <-
    (fun sw ~egress ~queue pkt ->
      match Packet.kind pkt with
      | Packet.Credit ->
        let q = Switch.queue sw ~egress ~queue in
        Bfc_switch.Fifo.length q < credit_cap
      | _ -> true);
  (* A resume is stale if a later transmission slot was armed after it was
     scheduled; only the freshest resume may unpause. *)
  let resume_at _sw egress time = Sim.post sim time ~cls:Sim.cls_xpass_resume ~a0:aidx ~a1:egress in
  hk.Switch.on_enqueue <-
    (fun sw ~in_port:_ ~egress ~queue pkt ->
      (* Enforce the shaping gap: if the credit queue must wait, pause it
         until its next transmission slot. *)
      if Packet.kind pkt = Packet.Credit && queue = credit_q then begin
        let now = Sim.now sim in
        if now < next_ok.(egress) then begin
          Switch.set_queue_paused sw ~egress ~queue:credit_q true;
          resume_at sw egress next_ok.(egress)
        end
      end);
  hk.Switch.on_dequeue <-
    (fun sw ~egress ~queue pkt ->
      if Packet.kind pkt = Packet.Credit && queue = credit_q then begin
        let port = Switch.port sw egress in
        let interval =
          Bfc_engine.Time.tx_time ~gbps:(Bfc_net.Port.gbps port) ~bytes:mtu_wire
        in
        next_ok.(egress) <- Sim.now sim + interval;
        Switch.set_queue_paused sw ~egress ~queue:credit_q true;
        resume_at sw egress next_ok.(egress)
      end)
