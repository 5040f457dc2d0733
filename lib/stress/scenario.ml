module Sim = Bfc_engine.Sim
module Time = Bfc_engine.Time
module Topology = Bfc_net.Topology
module Node = Bfc_net.Node
module Port = Bfc_net.Port
module Flow = Bfc_net.Flow
module Switch = Bfc_switch.Switch
module Rng = Bfc_util.Rng
module Runner = Bfc_sim.Runner
module Injector = Bfc_fault.Injector
module Loss = Bfc_fault.Loss

type action =
  | Flap of { at : Time.t; core : int; down_for : Time.t; period : Time.t; count : int }
  | Reboot of { at : Time.t; switch : int; down_for : Time.t option }
  | Loss_burst of { at : Time.t; dur : Time.t; p : float; lseed : int }
  | Incast of { at : Time.t; degree : int; agg : int; iseed : int }

type t = { sc_name : string; sc_actions : action list }

(* ------------------------------------------------------------------ *)
(* Canned scenarios *)

let clean = { sc_name = "clean"; sc_actions = [] }

let resume_loss ?(at = Time.us 40.0) ?(dur = Time.us 120.0) ?(p = 0.5) () =
  {
    sc_name = "resume-loss";
    sc_actions = [ Loss_burst { at; dur; p; lseed = 9001 } ];
  }

let flap_storm ?(at = Time.us 30.0) ?(count = 3) () =
  let down_for = Time.us 10.0 in
  let period = Time.us 35.0 in
  {
    sc_name = "flap-storm";
    sc_actions =
      [
        Flap { at; core = 0; down_for; period; count };
        Flap { at = at + Time.us 15.0; core = 3; down_for; period; count };
      ];
  }

let reboot ?(at = Time.us 60.0) ?(down_for = Time.us 25.0) ?(switch = 0) () =
  {
    sc_name = "reboot";
    sc_actions = [ Reboot { at; switch; down_for = Some down_for } ];
  }

let random_storm ~seed ~horizon =
  let rng = Rng.create seed in
  let t_in lo hi = lo + Rng.int rng (max 1 (hi - lo)) in
  let actions = ref [] in
  let n_flaps = 1 + Rng.int rng 3 in
  for _ = 1 to n_flaps do
    let down_for = Time.us (float_of_int (5 + Rng.int rng 15)) in
    let period = down_for + Time.us (float_of_int (10 + Rng.int rng 25)) in
    actions :=
      Flap
        {
          at = t_in (horizon / 10) (horizon / 2);
          core = Rng.int rng 8;
          down_for;
          period;
          count = 2 + Rng.int rng 3;
        }
      :: !actions
  done;
  actions :=
    Loss_burst
      {
        at = t_in (horizon / 8) (horizon / 2);
        dur = horizon / 8;
        p = 0.2 +. (0.1 *. float_of_int (Rng.int rng 5));
        lseed = Rng.int rng 1_000_000;
      }
    :: !actions;
  if Rng.bool rng then
    actions :=
      Reboot
        {
          at = t_in (horizon / 4) (horizon / 2);
          switch = Rng.int rng 4;
          down_for = Some (Time.us (float_of_int (10 + Rng.int rng 20)));
        }
      :: !actions;
  actions :=
    Incast
      {
        at = t_in (horizon / 6) (horizon / 3);
        degree = 8;
        agg = 400_000;
        iseed = Rng.int rng 1_000_000;
      }
    :: !actions;
  { sc_name = Printf.sprintf "storm-%d" seed; sc_actions = List.rev !actions }

(* ------------------------------------------------------------------ *)
(* Resolution & execution *)

(* The [i]-th switch-to-switch directed port, sorted by gid, modulo the
   count. *)
let core_link topo i =
  let nodes = Topology.nodes topo in
  let is_switch nd = nd.Node.kind = Node.Switch in
  let out = ref [] in
  Array.iter
    (fun nd ->
      if is_switch nd then
        Array.iter
          (fun p -> if is_switch nodes.((Port.peer p).Node.id) then out := Port.gid p :: !out)
          (Topology.ports topo nd.Node.id))
    nodes;
  match List.sort compare !out with
  | [] -> invalid_arg "Scenario: topology has no core links"
  | l -> List.nth l (i mod List.length l)

let incast_flows topo ~at ~degree ~agg ~iseed ~id_base =
  let rng = Rng.create iseed in
  let hosts = Array.copy (Topology.hosts topo) in
  let n = Array.length hosts in
  if n < 2 then []
  else begin
    Rng.shuffle rng hosts;
    let dst = hosts.(0) in
    let degree = min degree (n - 1) in
    let size = max 1 (agg / degree) in
    List.init degree (fun i ->
        Flow.make ~id:(id_base + i) ~src:hosts.(1 + i) ~dst ~size ~arrival:at ~is_incast:true ())
  end

let apply t ~env ~inj ?(id_base = 1_000_000) () =
  let sim = Runner.sim env in
  let topo = Runner.topo env in
  let extra = ref [] in
  let next_base = ref id_base in
  List.iter
    (fun action ->
      match action with
      | Flap { at; core; down_for; period; count } ->
        Injector.flap inj ~gid:(core_link topo core) ~start:at ~down_for ~period ~count
      | Reboot { at; switch; down_for } ->
        let switches = Runner.switches env in
        let node = Switch.node_id switches.(switch mod Array.length switches) in
        ignore
          (Sim.at sim at (fun () -> ignore (Injector.reboot_switch inj ~node ?down_for ())))
      | Loss_burst { at; dur; p; lseed } ->
        ignore
          (Sim.at sim at (fun () ->
               let l = Loss.create ~seed:lseed in
               Loss.add_prob l ~p Loss.resumes;
               Injector.set_loss_everywhere inj l));
        (* the burst owns every port's loss slot for its duration *)
        ignore (Sim.at sim (at + dur) (fun () -> Injector.clear_loss_everywhere inj))
      | Incast { at; degree; agg; iseed } ->
        let flows = incast_flows topo ~at ~degree ~agg ~iseed ~id_base:!next_base in
        next_base := !next_base + List.length flows;
        Runner.inject env flows;
        extra := !extra @ flows)
    t.sc_actions;
  !extra

(* ------------------------------------------------------------------ *)
(* Canonical rendering *)

let action_to_string = function
  | Flap { at; core; down_for; period; count } ->
    Printf.sprintf "flap at=%d sel=core:%d down_for=%d period=%d count=%d" at core down_for period
      count
  | Reboot { at; switch; down_for } ->
    Printf.sprintf "reboot at=%d switch=%d down_for=%s" at switch
      (match down_for with None -> "-" | Some d -> string_of_int d)
  | Loss_burst { at; dur; p; lseed } ->
    Printf.sprintf "loss_burst at=%d dur=%d p=%.4f pkts=resume seed=%d" at dur p lseed
  | Incast { at; degree; agg; iseed } ->
    Printf.sprintf "incast at=%d degree=%d agg=%d seed=%d" at degree agg iseed

let to_string t =
  String.concat "\n"
    (Printf.sprintf "scenario %s" t.sc_name
    :: List.map (fun a -> "  " ^ action_to_string a) t.sc_actions)
