(* Final test battery: properties of the newest components (Swift, Timely,
   credit-gated NIC) and a few remaining edge cases. *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Flow = Bfc_net.Flow
module Packet = Bfc_net.Packet
module Topology = Bfc_net.Topology
module Nic = Bfc_transport.Nic
module Swift = Bfc_transport.Swift
module Timely = Bfc_transport.Timely
module Active_flows = Bfc_core.Active_flows
module Dist = Bfc_workload.Dist

let check = Alcotest.check

(* ----------------------------- Properties --------------------------- *)

let prop_swift_window_floor =
  QCheck.Test.make ~name:"swift window never below one MTU" ~count:100
    QCheck.(list (int_range 1_000 1_000_000))
    (fun rtts ->
      let sw = Swift.create ~mtu:1000 ~bdp:100_000 ~base_rtt:8_000 in
      let now = ref 0 in
      List.iter
        (fun rtt ->
          now := !now + 2_000;
          Swift.on_ack sw ~rtt ~now:!now)
        rtts;
      Swift.window sw >= 1000)

let prop_timely_rate_bounded =
  QCheck.Test.make ~name:"timely rate stays within [line/1000, line]" ~count:100
    QCheck.(list (int_range 1_000 1_000_000))
    (fun rtts ->
      let tm = Timely.create ~line_gbps:100.0 ~base_rtt:8_000 ~t_low:10_000 ~t_high:16_000 in
      List.iter (fun rtt -> Timely.on_ack tm ~rtt) rtts;
      let r = Timely.rate tm in
      r >= 12.5 /. 1000.0 -. 1e-9 && r <= 12.5 +. 1e-9)

let prop_active_flows_quantile_consistent =
  QCheck.Test.make ~name:"cdf(quantile(p)) >= p" ~count:100
    QCheck.(pair (float_range 0.05 0.9) (float_range 0.01 0.99))
    (fun (rho, p) ->
      let n = Active_flows.quantile ~rho ~p in
      Active_flows.cdf ~rho n >= p -. 1e-9)

let prop_byte_cdf_monotone =
  QCheck.Test.make ~name:"byte cdf is monotone in size" ~count:100
    QCheck.(pair (float_range 100.0 1e7) (float_range 100.0 1e7))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Dist.byte_cdf Dist.google lo <= Dist.byte_cdf Dist.google hi +. 1e-9)

let prop_ecmp_in_candidates =
  QCheck.Test.make ~name:"ecmp choice is always a valid candidate" ~count:50
    QCheck.(int_range 0 100_000)
    (fun id ->
      let sim = Sim.create () in
      let cl = Topology.clos sim ~spines:3 ~tors:3 ~hosts_per_tor:2 ~gbps:100.0 ~prop:1000 in
      let t = cl.Topology.t in
      let hosts = cl.Topology.cl_hosts in
      let f = Flow.make ~id ~src:hosts.(0) ~dst:hosts.(5) ~size:1 ~arrival:0 () in
      let tor = cl.Topology.tors.(0) in
      let choice = Topology.ecmp_port t ~node:tor ~fid:f.Flow.id ~dst:f.Flow.dst in
      Array.mem choice (Topology.candidates t ~node:tor ~dst:f.Flow.dst))

(* -------------------------- Credit-gated NIC ------------------------ *)

let mk_nic_credit () =
  let sim = Sim.create () in
  let b = Topology.Builder.create sim in
  let h = Topology.Builder.add_host b ~name:"h" in
  let z = Topology.Builder.add_host b ~name:"z" in
  Topology.Builder.link b h z ~gbps:100.0 ~prop:(Time.us 1.0);
  let t = Topology.Builder.finish b in
  let received = ref [] in
  (Topology.node t z).Bfc_net.Node.handler <- (fun ~in_port:_ pkt -> received := pkt :: !received);
  (Topology.node t h).Bfc_net.Node.handler <- (fun ~in_port:_ _ -> ());
  let nic =
    Nic.create ~sim ~node:h ~port:(Topology.ports t h).(0) ~n_queues:8 ~policy:Bfc_switch.Sched.Drr
      ~respect_pause:true ~credit:2_200 ()
  in
  (sim, nic, received)

let data_pkt flow_id =
  let f = Flow.make ~id:flow_id ~src:0 ~dst:1 ~size:100_000 ~arrival:0 () in
  Packet.data ~flow:f ~seq:0 ~payload:1000 ()

let test_nic_credit_gates_data () =
  let sim, nic, received = mk_nic_credit () in
  let q = Nic.alloc_queue nic in
  (* 2200 B of credit covers two 1048 B packets; the third must wait *)
  for _ = 1 to 4 do
    Nic.submit nic ~queue:q (data_pkt 1)
  done;
  ignore (Sim.run sim ~until:(Time.us 200.0));
  check Alcotest.int "two sent on initial credit" 2 (List.length !received);
  (* return one credit *)
  let credit = Packet.make Packet.Hop_credit ~dst:(-1) ~size:64 () in
  Packet.set_ctrl_a credit q;
  Packet.set_ctrl_b credit 1048;
  Nic.on_ctrl nic credit;
  ignore (Sim.run sim ~until:(Time.us 400.0));
  check Alcotest.int "third released by the credit" 3 (List.length !received)

let test_nic_credit_exempts_ctrl_queue () =
  let sim, nic, received = mk_nic_credit () in
  (* queue 0 (acks) is never credit-gated *)
  for _ = 1 to 5 do
    Nic.submit_ctrl nic (Packet.make Packet.Ack ~dst:1 ~size:64 ())
  done;
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "all acks flow" 5 (List.length !received)

(* ------------------------------ Edge cases -------------------------- *)

let test_topology_invalid_dst () =
  let sim = Sim.create () in
  let cl = Topology.clos sim ~spines:2 ~tors:2 ~hosts_per_tor:2 ~gbps:100.0 ~prop:1000 in
  Alcotest.(check bool) "candidates to a switch raises" true
    (try
       ignore (Topology.candidates cl.Topology.t ~node:cl.Topology.cl_hosts.(0) ~dst:cl.Topology.tors.(0));
       false
     with Invalid_argument _ -> true)

let test_sim_cancel_after_fire_is_noop () =
  let sim = Sim.create () in
  let n = ref 0 in
  let h = Sim.at sim 5 (fun () -> incr n) in
  ignore (Sim.run_until_idle sim);
  Sim.cancel h (* already fired: must not blow up or unfire *);
  check Alcotest.int "fired exactly once" 1 !n

let test_flow_fct_incomplete_raises () =
  let f = Flow.make ~id:1 ~src:0 ~dst:1 ~size:10 ~arrival:0 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Flow.fct f);
       false
     with Invalid_argument _ -> true)

let test_model_invalid_args () =
  Alcotest.(check bool) "x <= 1 rejected" true
    (try
       ignore (Bfc_core.Model.ef ~x:1.0 ~th_ratio:1.0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative th rejected" true
    (try
       ignore (Bfc_core.Model.ef ~x:2.0 ~th_ratio:(-1.0));
       false
     with Invalid_argument _ -> true)

let test_active_flows_invalid_rho () =
  Alcotest.(check bool) "rho >= 1 rejected" true
    (try
       ignore (Active_flows.mean ~rho:1.0);
       false
     with Invalid_argument _ -> true)

(* ------------------- Every bench target, end to end ----------------- *)

(* fixtures/sim/experiments_smoke.expected is what [bfc_sim run --profile
   smoke] prints for the whole registry, minus its timing lines.
   Regenerate it from the repository root with
     dune build && ./_build/default/bin/bfc_sim.exe run --profile smoke \
       | grep -v '^\[.* done in ' > test/fixtures/sim/experiments_smoke.expected *)
let experiments_fixture =
  if Sys.file_exists "fixtures/sim" then "fixtures/sim/experiments_smoke.expected"
  else "test/fixtures/sim/experiments_smoke.expected"

(* The first line where [got] and [want] differ, as a message; [None] when
   they are equal. *)
let first_difference ~got ~want =
  let rec go n = function
    | g :: gs, w :: ws -> if g = w then go (n + 1) (gs, ws) else Some (n, g, w)
    | [], [] -> None
    | g :: _, [] -> Some (n, g, "<end of fixture>")
    | [], w :: _ -> Some (n, "<end of output>", w)
  in
  go 1 (String.split_on_char '\n' got, String.split_on_char '\n' want)
  |> Option.map (fun (n, g, w) -> Printf.sprintf "line %d:\n  got:  %s\n  want: %s" n g w)

let test_every_experiment_target_runs () =
  (* the whole registry at smoke scale: the bench harness must never crash,
     every produced table must be well-formed, and the tables, rendered as
     [Experiments.run] prints them, must match the fixture byte for byte *)
  let out = Buffer.create 65_536 in
  List.iter
    (fun t ->
      let tables = t.Bfc_sim.Experiments.t_run Bfc_sim.Exp_common.Smoke in
      Alcotest.(check bool)
        (t.Bfc_sim.Experiments.t_name ^ " produces tables")
        true (tables <> []);
      Printf.bprintf out "\n################ %s — %s\n" t.Bfc_sim.Experiments.t_name
        t.Bfc_sim.Experiments.t_what;
      List.iter
        (fun tbl ->
          let w = List.length tbl.Bfc_sim.Exp_common.header in
          Alcotest.(check bool)
            (t.Bfc_sim.Experiments.t_name ^ " rows match header width")
            true
            (List.for_all (fun r -> List.length r = w) tbl.Bfc_sim.Exp_common.rows);
          Printf.bprintf out "\n== %s ==\n%s" tbl.Bfc_sim.Exp_common.title
            (Bfc_util.Ascii_table.render ~header:tbl.Bfc_sim.Exp_common.header
               tbl.Bfc_sim.Exp_common.rows))
        tables)
    Bfc_sim.Experiments.all;
  let want = In_channel.with_open_bin experiments_fixture In_channel.input_all in
  match first_difference ~got:(Buffer.contents out) ~want with
  | None -> ()
  | Some msg -> Alcotest.failf "smoke tables differ from %s at %s" experiments_fixture msg

let suite =
  [
    ("every bench target runs (smoke)", `Slow, test_every_experiment_target_runs);
    ("nic credit gates data", `Quick, test_nic_credit_gates_data);
    ("nic credit exempts ctrl", `Quick, test_nic_credit_exempts_ctrl_queue);
    ("topology invalid dst", `Quick, test_topology_invalid_dst);
    ("sim cancel after fire", `Quick, test_sim_cancel_after_fire_is_noop);
    ("flow fct incomplete", `Quick, test_flow_fct_incomplete_raises);
    ("model invalid args", `Quick, test_model_invalid_args);
    ("active flows invalid rho", `Quick, test_active_flows_invalid_rho);
    QCheck_alcotest.to_alcotest prop_swift_window_floor;
    QCheck_alcotest.to_alcotest prop_timely_rate_bounded;
    QCheck_alcotest.to_alcotest prop_active_flows_quantile_consistent;
    QCheck_alcotest.to_alcotest prop_byte_cdf_monotone;
    QCheck_alcotest.to_alcotest prop_ecmp_in_candidates;
  ]
