(* Fault injection and the runtime invariant auditor: watchdog recovery
   from lost Resume frames, auditor soundness (clean runs pass, corrupted
   state trips), link flaps, switch reboots, and the structured errors
   added alongside (Sim.Runaway, Port.Busy, Rng.bernoulli). *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Rng = Bfc_util.Rng
module Node = Bfc_net.Node
module Packet = Bfc_net.Packet
module Port = Bfc_net.Port
module Flow = Bfc_net.Flow
module Topology = Bfc_net.Topology
module Fifo = Bfc_switch.Fifo
module Switch = Bfc_switch.Switch
module Scheme = Bfc_sim.Scheme
module Runner = Bfc_sim.Runner
module Metrics = Bfc_sim.Metrics
module Loss = Bfc_fault.Loss
module Injector = Bfc_fault.Injector
module Auditor = Bfc_fault.Auditor

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Satellites: structured errors and Rng.bernoulli                     *)

let test_bernoulli () =
  let r = Rng.create 42 in
  Alcotest.check_raises "p > 1 rejected"
    (Invalid_argument "Rng.bernoulli: probability 1.5 not in [0, 1]") (fun () ->
      ignore (Rng.bernoulli r 1.5));
  Alcotest.check_raises "p < 0 rejected"
    (Invalid_argument "Rng.bernoulli: probability -0.1 not in [0, 1]") (fun () ->
      ignore (Rng.bernoulli r (-0.1)));
  for _ = 1 to 100 do
    check Alcotest.bool "p=0 never fires" false (Rng.bernoulli r 0.0);
    check Alcotest.bool "p=1 always fires" true (Rng.bernoulli r 1.0)
  done;
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  Alcotest.(check bool)
    (Printf.sprintf "p=0.3 frequency sane (%d/10000)" !hits)
    true
    (!hits > 2_700 && !hits < 3_300)

let test_runaway () =
  let sim = Sim.create () in
  let rec loop () = ignore (Sim.after sim 10 loop) in
  loop ();
  match Sim.run_until_idle ~cap:1_000 sim with
  | _ -> Alcotest.fail "expected Sim.Runaway"
  | exception Sim.Runaway { now; pending_events } ->
    Alcotest.(check bool) "runaway carries progress" true (now > 0 && pending_events > 0)

let test_port_busy () =
  let sim = Sim.create () in
  let peer = Node.make ~id:1 ~kind:Node.Host ~name:"h1" in
  peer.Node.handler <- (fun ~in_port:_ _ -> ());
  let p = Port.create ~sim ~gid:7 ~gbps:100.0 ~prop:(Time.us 1.0) ~peer ~peer_port:0 in
  let pkt () = Packet.make Packet.Data ~src:0 ~dst:1 ~size:1000 () in
  Port.send p (pkt ());
  (match Port.send p (pkt ()) with
  | () -> Alcotest.fail "expected Port.Busy"
  | exception Port.Busy { gid; now } ->
    check Alcotest.int "busy carries gid" 7 gid;
    check Alcotest.int "busy carries time" (Sim.now sim) now);
  ignore (Sim.run_until_idle sim)

(* ------------------------------------------------------------------ *)
(* Loss model                                                          *)

let test_loss_model () =
  Alcotest.check_raises "bad probability rejected"
    (Invalid_argument "Loss.add_prob: probability not in [0, 1]") (fun () ->
      Loss.add_prob (Loss.create ~seed:1) ~p:2.0 Loss.any);
  let l = Loss.create ~seed:1 in
  Loss.add_nth l ~n:3 Loss.resumes;
  Loss.add_every l ~n:2 Loss.data;
  let resume () = Packet.make Packet.Resume ~src:0 ~dst:1 ~size:64 () in
  let data () = Packet.make Packet.Data ~src:0 ~dst:1 ~size:1000 () in
  let r = List.init 5 (fun _ -> Loss.decide l (resume ())) in
  check (Alcotest.list Alcotest.bool) "exactly the 3rd Resume lost"
    [ false; false; true; false; false ]
    r;
  let d = List.init 6 (fun _ -> Loss.decide l (data ())) in
  check (Alcotest.list Alcotest.bool) "every 2nd data packet lost"
    [ false; true; false; true; false; true ]
    d;
  check Alcotest.int "losses counted" 4 (Loss.total l)

(* ------------------------------------------------------------------ *)
(* Incast under faults                                                 *)

let star_incast ?(senders = 16) ?(size = 32_000) ~watchdog () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders ~gbps:100.0 ~prop:(Time.us 1.0) in
  let params =
    {
      Runner.default_params with
      Runner.pause_watchdog = Option.map Time.us watchdog;
    }
  in
  let env = Runner.setup ~topo:st.Topology.s ~scheme:Scheme.bfc ~params in
  let flows =
    List.init senders (fun i ->
        Flow.make ~id:i ~src:st.Topology.st_senders.(i) ~dst:st.Topology.st_receiver ~size
          ~arrival:(Time.us (0.1 *. float_of_int i))
          ~is_incast:true ())
  in
  (st, env, flows)

let lossy_auditor env =
  Auditor.attach
    ~config:{ Auditor.default_config with Auditor.check_pairing = false; fail_fast = false }
    env

let resume_loss inj =
  (* one deterministic early loss so the scenario never depends on the
     seed, plus the 1% background loss from the issue *)
  let loss = Loss.create ~seed:11 in
  Loss.add_nth loss ~n:1 Loss.resumes;
  Loss.add_prob loss ~p:0.01 Loss.resumes;
  Injector.set_loss_everywhere inj loss;
  loss

let test_watchdog_recovers_lost_resume () =
  let _, env, flows = star_incast ~watchdog:(Some 50.0) () in
  let inj = Injector.attach env in
  let loss = resume_loss inj in
  let aud = lossy_auditor env in
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 1.0);
  Runner.drain env ~budget:(Time.ms 10.0);
  Auditor.check aud;
  Alcotest.(check bool) "a Resume was lost" true (Loss.total loss >= 1);
  check Alcotest.int "all flows complete despite lost Resumes" (Runner.injected env)
    (Runner.completed env);
  Alcotest.(check bool) "watchdog fired" true (Metrics.watchdog_fires env >= 1);
  check Alcotest.int "auditor clean" 0 (Auditor.violation_count aud)

let test_no_watchdog_stalls () =
  let _, env, flows = star_incast ~watchdog:None () in
  let inj = Injector.attach env in
  let loss = resume_loss inj in
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 1.0);
  Runner.drain env ~budget:(Time.ms 10.0);
  Alcotest.(check bool) "a Resume was lost" true (Loss.total loss >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "run stalls without the watchdog (%d/%d)" (Runner.completed env)
       (Runner.injected env))
    true
    (Runner.completed env < Runner.injected env)

let test_auditor_clean_run () =
  (* strictest settings: pairing on, fail_fast on -- any violation raises *)
  let _, env, flows = star_incast ~watchdog:None () in
  let aud = Auditor.attach env in
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 1.0);
  Runner.drain env ~budget:(Time.ms 10.0);
  Auditor.check aud;
  Alcotest.(check bool) "sweeps ran" true (Auditor.checks_run aud > 10);
  check Alcotest.bool "no violations on a clean incast" true (Auditor.ok aud)

let test_auditor_trips_on_corruption () =
  let _, env, flows = star_incast ~senders:4 ~watchdog:None () in
  let aud = Auditor.attach env in
  Runner.inject env flows;
  Runner.run env ~until:(Time.us 5.0);
  (* smuggle a packet into a queue behind the switch's back: byte and
     packet accounting must both notice *)
  let sw = (Runner.switches env).(0) in
  let q = (Switch.queues sw ~egress:0).(0) in
  Fifo.push q (Packet.make Packet.Data ~src:0 ~dst:1 ~size:1000 ());
  (match Auditor.check aud with
  | () -> Alcotest.fail "expected Audit_violation"
  | exception Auditor.Audit_violation v ->
    Alcotest.(check bool)
      ("violation names a real invariant: " ^ v.Auditor.v_invariant)
      true
      (List.mem v.Auditor.v_invariant
         [ "egress-bytes"; "buffer-bytes"; "packet-conservation" ]));
  Alcotest.(check bool) "violation recorded" true (Auditor.violation_count aud >= 1)

let test_link_flap_bfc () =
  let st, env, flows = star_incast ~watchdog:(Some 50.0) () in
  let inj = Injector.attach env in
  let aud = lossy_auditor env in
  Injector.flap inj ~gid:st.Topology.st_bottleneck_gid ~start:(Time.us 30.0)
    ~down_for:(Time.us 10.0) ~period:(Time.us 100.0) ~count:3;
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 1.0);
  Runner.drain env ~budget:(Time.ms 30.0);
  Auditor.check aud;
  Alcotest.(check bool) "flap lost packets on the wire" true (Injector.faults_injected inj > 0);
  check Alcotest.int "BFC finishes through the flaps" (Runner.injected env) (Runner.completed env);
  check Alcotest.int "zero auditor violations" 0 (Auditor.violation_count aud)

(* The injector reports link state on the sim's tap, so a tracer on the
   same environment records every flap without being handed to it. *)
let test_link_flap_traced () =
  let st, env, flows = star_incast ~watchdog:(Some 50.0) () in
  let tracer = Bfc_sim.Tracer.attach env ~capacity:4096 in
  let inj = Injector.attach env in
  let gid = st.Topology.st_bottleneck_gid in
  Injector.flap inj ~gid ~start:(Time.us 30.0) ~down_for:(Time.us 10.0) ~period:(Time.us 100.0)
    ~count:3;
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 1.0);
  let links =
    List.filter_map
      (fun e ->
        match e.Bfc_sim.Tracer.ev with
        | Bfc_sim.Tracer.Link_down { gid } -> Some (e.Bfc_sim.Tracer.at, "down", gid)
        | Bfc_sim.Tracer.Link_up { gid } -> Some (e.Bfc_sim.Tracer.at, "up", gid)
        | _ -> None)
      (Bfc_sim.Tracer.events tracer)
  in
  let expected =
    List.concat_map
      (fun i ->
        let at = Time.us 30.0 + (i * Time.us 100.0) in
        [ (at, "down", gid); (at + Time.us 10.0, "up", gid) ])
      [ 0; 1; 2 ]
  in
  check
    Alcotest.(list (triple int string int))
    "three flaps, in order, on the bottleneck" expected links

let test_link_flap_pfc () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:16 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let env = Runner.setup ~topo:st.Topology.s ~scheme:Scheme.pfc_only ~params:Runner.default_params in
  let inj = Injector.attach env in
  Injector.flap inj ~gid:st.Topology.st_bottleneck_gid ~start:(Time.us 30.0)
    ~down_for:(Time.us 10.0) ~period:(Time.us 100.0) ~count:3;
  let flows =
    List.init 16 (fun i ->
        Flow.make ~id:i ~src:st.Topology.st_senders.(i) ~dst:st.Topology.st_receiver ~size:32_000
          ~arrival:(Time.us (0.1 *. float_of_int i))
          ~is_incast:true ())
  in
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 1.0);
  Runner.drain env ~budget:(Time.ms 30.0);
  check Alcotest.int "PFC finishes through the flaps" (Runner.injected env) (Runner.completed env);
  let total_pkts = 16 * ((32_000 / Runner.default_params.Runner.mtu) + 1) in
  Alcotest.(check bool)
    (Printf.sprintf "PFC drops bounded (%d)" (Runner.total_drops env))
    true
    (Runner.total_drops env < total_pkts)

let test_reboot_conservation () =
  let _, env, flows = star_incast ~watchdog:(Some 50.0) () in
  let inj = Injector.attach env in
  let aud = lossy_auditor env in
  let sw_node = (Runner.switches env).(0) |> Switch.node_id in
  let flushed = ref 0 in
  ignore
    (Sim.at (Runner.sim env) (Time.us 40.0) (fun () ->
         flushed := Injector.reboot_switch inj ~node:sw_node ~down_for:(Time.us 20.0) ()));
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 1.0);
  Runner.drain env ~budget:(Time.ms 30.0);
  Auditor.check aud;
  Alcotest.(check bool) "reboot flushed resident packets" true (!flushed > 0);
  check Alcotest.int "one reboot recorded" 1 (Metrics.reboots env);
  check Alcotest.int "flushed packets counted as drops" (Runner.total_drops env) !flushed;
  check Alcotest.int "all flows recover after the crash" (Runner.injected env)
    (Runner.completed env);
  check Alcotest.int "conservation holds across the wipe" 0 (Auditor.violation_count aud)

let test_reboot_respects_prior_outage () =
  (* Regression: a reboot's down_for schedule must compose with existing
     link faults. The pre-downed bottleneck link stays down through the
     reboot's restore sweep (no early resurrection, no double-counted
     fault_links_down), and a *fresh* outage of a reboot-downed link is
     not clobbered by the reboot's stale restore timer. *)
  let module Registry = Bfc_obs.Registry in
  let st, env, _ = star_incast ~watchdog:None () in
  let sim = Runner.sim env in
  let reg = Registry.create () in
  let inj = Injector.attach ~registry:reg env in
  let g_prior = st.Topology.st_bottleneck_gid in
  let g_other =
    let ports = Topology.ports (Runner.topo env) st.Topology.st_switch in
    let found = ref (-1) in
    Array.iter (fun p -> if !found < 0 && Port.gid p <> g_prior then found := Port.gid p) ports;
    !found
  in
  let links_down () =
    int_of_float (List.assoc "fault_links_down" (Registry.sample_gauges reg))
  in
  Injector.link_down inj ~gid:g_prior;
  let before = links_down () in
  ignore
    (Sim.at sim (Time.us 10.0) (fun () ->
         ignore (Injector.reboot_switch inj ~node:st.Topology.st_switch ~down_for:(Time.us 20.0) ())));
  (* while the reboot holds g_other down, an independent fault cycles it:
     up, then down again -- a new outage the stale timer must not undo *)
  ignore
    (Sim.at sim (Time.us 20.0) (fun () ->
         Injector.link_up inj ~gid:g_other;
         Injector.link_down inj ~gid:g_other));
  let after_restore = ref (-1) in
  let prior_still_down = ref false in
  let fresh_still_down = ref false in
  ignore
    (Sim.at sim (Time.us 40.0) (fun () ->
         after_restore := links_down ();
         prior_still_down := Injector.is_down inj ~gid:g_prior;
         fresh_still_down := Injector.is_down inj ~gid:g_other;
         Injector.link_up inj ~gid:g_prior;
         Injector.link_up inj ~gid:g_other));
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "prior outage covers both directions" 2 before;
  Alcotest.(check bool) "reboot restore leaves the prior outage down" true !prior_still_down;
  Alcotest.(check bool) "stale reboot timer spares the fresh outage" true !fresh_still_down;
  check Alcotest.int "exactly the two live outages remain" 4 !after_restore;
  check Alcotest.int "explicit link_up clears everything" 0 (links_down ())

let test_flap_rejects_bad_schedule () =
  let _, env, _ = star_incast ~watchdog:None () in
  let inj = Injector.attach env in
  Alcotest.check_raises "down_for >= period rejected"
    (Invalid_argument "Injector.flap: down_for/period") (fun () ->
      Injector.flap inj ~gid:0 ~start:0 ~down_for:(Time.us 10.0) ~period:(Time.us 10.0) ~count:1)

let suite =
  [
    Alcotest.test_case "rng bernoulli" `Quick test_bernoulli;
    Alcotest.test_case "sim runaway is structured" `Quick test_runaway;
    Alcotest.test_case "port busy is structured" `Quick test_port_busy;
    Alcotest.test_case "loss model" `Quick test_loss_model;
    Alcotest.test_case "watchdog recovers lost resume" `Quick test_watchdog_recovers_lost_resume;
    Alcotest.test_case "no watchdog stalls" `Quick test_no_watchdog_stalls;
    Alcotest.test_case "auditor clean run" `Quick test_auditor_clean_run;
    Alcotest.test_case "auditor trips on corruption" `Quick test_auditor_trips_on_corruption;
    Alcotest.test_case "link flap bfc" `Quick test_link_flap_bfc;
    Alcotest.test_case "link flap traced" `Quick test_link_flap_traced;
    Alcotest.test_case "link flap pfc" `Quick test_link_flap_pfc;
    Alcotest.test_case "reboot conservation" `Quick test_reboot_conservation;
    Alcotest.test_case "reboot respects prior outage" `Quick test_reboot_respects_prior_outage;
    Alcotest.test_case "flap validates schedule" `Quick test_flap_rejects_bad_schedule;
  ]
