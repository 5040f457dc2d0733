(* Fault storm: control-frame loss, link flaps and a switch crash against
   the BFC dataplane, with the runtime auditor watching the invariants.

   Scenarios:
   1. Clean 32:1 incast with the full auditor (pairing checks on,
      fail-fast) -- establishes the baseline: every invariant holds.
   2. The same incast with 1% Resume-frame loss. With the pause watchdog
      armed every flow completes and the auditor stays clean; with the
      watchdog disabled the first lost Resume wedges its sender queue
      forever and the run stalls (drain budget exhausted).
   3. The bottleneck link flaps three times mid-incast: BFC absorbs the
      outage losslessly at the switch (retransmissions recover the
      in-flight window), PFC shows the same recovery but with drops.
   4. A ToR switch crashes and reboots mid-incast on a small Clos: its
      buffer is flushed, flow table and pause counters reset; upstream
      queues paused on its behalf are recovered by the watchdog and the
      conservation invariants hold across the wipe.
   5. A seeded random storm from the stress scenario DSL (flaps +
      Resume-loss burst + maybe a reboot + a surprise incast) against the
      Clos workload, with the pause-storm / deadlock / victim detectors
      attached — replayed twice to show the same seed gives a
      byte-identical detector report.

   Run with: dune exec examples/fault_storm.exe *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Topology = Bfc_net.Topology
module Flow = Bfc_net.Flow
module Scheme = Bfc_sim.Scheme
module Runner = Bfc_sim.Runner
module Metrics = Bfc_sim.Metrics
module Loss = Bfc_fault.Loss
module Injector = Bfc_fault.Injector
module Auditor = Bfc_fault.Auditor

let incast_flows st ~count ~size =
  List.init count (fun i ->
      Flow.make ~id:i
        ~src:st.Topology.st_senders.(i mod Array.length st.Topology.st_senders)
        ~dst:st.Topology.st_receiver ~size
        ~arrival:(Time.us (0.1 *. float_of_int i))
        ~is_incast:true ())

let report label env aud ~wd ~faults =
  Printf.printf "  %-24s completed %2d/%2d   drops %3d   faults %3d   wdog %2d   violations %d\n"
    label (Runner.completed env) (Runner.injected env) (Runner.total_drops env) faults wd
    (Auditor.violation_count aud);
  List.iter (fun v -> Printf.printf "    ! %s\n" (Auditor.to_string v)) (Auditor.violations aud)

(* 1: clean run, strictest auditor: any violation raises *)
let clean_run () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:32 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let env = Runner.setup ~topo:st.Topology.s ~scheme:Scheme.bfc ~params:Runner.default_params in
  let aud = Auditor.attach env in
  Runner.inject env (incast_flows st ~count:32 ~size:64_000);
  Runner.run env ~until:(Time.ms 1.0);
  Runner.drain env ~budget:(Time.ms 10.0);
  Auditor.check aud;
  report "clean incast" env aud ~wd:0 ~faults:0

(* 2: 1% Resume loss (plus one deterministic early loss so the stall is
   not at the mercy of the seed), watchdog on vs off *)
let resume_loss_run ~watchdog =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:32 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let params =
    {
      Runner.default_params with
      Runner.pause_watchdog = (if watchdog then Some (Time.us 50.0) else None);
    }
  in
  let env = Runner.setup ~topo:st.Topology.s ~scheme:Scheme.bfc ~params in
  let inj = Injector.attach env in
  let loss = Loss.create ~seed:11 in
  Loss.add_nth loss ~n:3 Loss.resumes;
  Loss.add_prob loss ~p:0.01 Loss.resumes;
  Injector.set_loss_everywhere inj loss;
  (* lost Resumes legitimately break strict Pause/Resume pairing *)
  let aud =
    Auditor.attach
      ~config:{ Auditor.check_pairing = false; fail_fast = false }
      env
  in
  Runner.inject env (incast_flows st ~count:32 ~size:64_000);
  Runner.run env ~until:(Time.ms 1.0);
  Runner.drain env ~budget:(Time.ms 10.0);
  Auditor.check aud;
  report
    (if watchdog then "1% Resume loss, watchdog" else "1% Resume loss, no wdog")
    env aud ~wd:(Metrics.watchdog_fires env) ~faults:(Loss.total loss)

(* 3: flap the bottleneck link under BFC and PFC *)
let flap_run scheme =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:16 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let params = { Runner.default_params with Runner.pause_watchdog = Some (Time.us 50.0) } in
  let env = Runner.setup ~topo:st.Topology.s ~scheme ~params in
  let inj = Injector.attach env in
  let aud =
    Auditor.attach
      ~config:{ Auditor.check_pairing = false; fail_fast = false }
      env
  in
  Injector.flap inj ~gid:st.Topology.st_bottleneck_gid ~start:(Time.us 30.0)
    ~down_for:(Time.us 10.0) ~period:(Time.us 100.0) ~count:3;
  Runner.inject env (incast_flows st ~count:16 ~size:32_000);
  Runner.run env ~until:(Time.ms 1.0);
  Runner.drain env ~budget:(Time.ms 30.0);
  Auditor.check aud;
  report
    (Printf.sprintf "link flap x3, %s" (Scheme.name scheme))
    env aud
    ~wd:(Metrics.watchdog_fires env)
    ~faults:(Injector.faults_injected inj)

(* 4: crash-reboot a ToR mid-incast on a small Clos *)
let reboot_run () =
  let sim = Sim.create () in
  let cl = Topology.clos sim ~spines:2 ~tors:2 ~hosts_per_tor:8 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let params = { Runner.default_params with Runner.pause_watchdog = Some (Time.us 50.0) } in
  let env = Runner.setup ~topo:cl.Topology.t ~scheme:Scheme.bfc ~params in
  let inj = Injector.attach env in
  let aud =
    Auditor.attach
      ~config:{ Auditor.check_pairing = false; fail_fast = false }
      env
  in
  let hosts = cl.Topology.cl_hosts in
  let flows =
    List.init 12 (fun i ->
        Flow.make ~id:i ~src:hosts.(4 + i) ~dst:hosts.(0) ~size:64_000
          ~arrival:(Time.us (0.1 *. float_of_int i))
          ~is_incast:true ())
  in
  let victim_tor = cl.Topology.tors.(0) in
  let flushed = ref 0 in
  ignore
    (Sim.at sim (Time.us 40.0) (fun () ->
         flushed := Injector.reboot_switch inj ~node:victim_tor ~down_for:(Time.us 20.0) ()));
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 1.0);
  Runner.drain env ~budget:(Time.ms 30.0);
  Auditor.check aud;
  Printf.printf "  %-24s flushed %d packets at reboot, %d reboot(s)\n" "ToR crash+reboot" !flushed
    (Metrics.reboots env);
  report "" env aud ~wd:(Metrics.watchdog_fires env) ~faults:(Injector.faults_injected inj)

(* 5: seeded random storm via the scenario DSL + stress detectors *)
module Scenario = Bfc_stress.Scenario
module Detect = Bfc_stress.Detect
module Stress_exp = Bfc_stress.Stress_exp

let storm_run ~seed scheme =
  let sc = Scenario.random_storm ~seed ~horizon:(Time.ms 1.0) in
  let c =
    Stress_exp.clos_cell Bfc_sim.Exp_common.Smoke ~scheme ~scenario:sc
      ~watchdog:(Time.us 50.0) ~seed:1
  in
  ( sc,
    Printf.sprintf "completed %d/%d   wdog %2d   %s" c.Stress_exp.c_completed
      c.Stress_exp.c_injected c.Stress_exp.c_watchdog
      (Detect.summary c.Stress_exp.c_report) )

let storm_section () =
  let sc, first = storm_run ~seed:42 Scheme.bfc in
  let _, replay = storm_run ~seed:42 Scheme.bfc in
  let _, pfc = storm_run ~seed:42 Scheme.pfc_only in
  Printf.printf "\n%s\n" (Scenario.to_string sc);
  Printf.printf "  %-24s %s\n" "random storm, BFC" first;
  Printf.printf "  %-24s %s\n" "random storm, PFC" pfc;
  Printf.printf "  replay (same seed) byte-identical: %b\n" (String.equal first replay)

let () =
  Printf.printf "Fault storm: injected faults vs the BFC dataplane + invariant auditor\n\n";
  clean_run ();
  resume_loss_run ~watchdog:true;
  resume_loss_run ~watchdog:false;
  flap_run Scheme.bfc;
  flap_run Scheme.pfc_only;
  reboot_run ();
  storm_section ()
