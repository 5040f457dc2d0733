(* Stress suite: the pause-storm / runtime-deadlock / victim-flow
   detectors fire on crafted pathologies (PFC on the CBD ring, PFC under
   flaps on the Clos), stay silent for BFC on deadlock-free fabrics, and
   the whole scenario machinery replays byte-identically from a seed. *)

module Time = Bfc_engine.Time
module Scheme = Bfc_sim.Scheme
module Exp_common = Bfc_sim.Exp_common
module Detect = Bfc_stress.Detect
module Scenario = Bfc_stress.Scenario
module Stress_exp = Bfc_stress.Stress_exp

let check = Alcotest.check

let wd = Time.us 50.0

(* Every cell's hosts see no stale packet: no packet outlives its flow's
   slot in the flow table. *)
let fresh (c : Stress_exp.cell) =
  check Alcotest.int "no stale packet" 0 c.Stress_exp.c_stale;
  c

let clos scheme scenario =
  fresh (Stress_exp.clos_cell Exp_common.Smoke ~scheme ~scenario ~watchdog:wd ~seed:1)

let ring scenario = fresh (Stress_exp.ring_cell Exp_common.Smoke scenario)

let silent (c : Stress_exp.cell) =
  let r = c.Stress_exp.c_report in
  List.length r.Detect.r_storms = 0
  && List.length r.Detect.r_deadlocks = 0
  && List.length r.Detect.r_victims = 0

(* ------------------------------------------------------------------ *)
(* Ring leg: the crafted cyclic buffer dependency *)

let test_ring_pfc_deadlocks () =
  let c = ring Stress_exp.Ring_pfc in
  let r = c.Stress_exp.c_report in
  check Alcotest.int "fabric wedges: nothing completes" 0 c.Stress_exp.c_completed;
  Alcotest.(check bool) "runtime deadlock flagged" true (List.length r.Detect.r_deadlocks >= 1);
  List.iter
    (fun d ->
      Alcotest.(check bool) "witness cycle is long enough to be real" true
        (List.length d.Detect.dl_cycle >= 2);
      Alcotest.(check bool) "every witness edge statically dangerous" true
        d.Detect.dl_static_dangerous)
    r.Detect.r_deadlocks;
  Alcotest.(check bool) "port-level storms rage while wedged" true (r.Detect.r_storm_ports >= 1)

let test_ring_bfc_unprotected_deadlocks () =
  let c = ring Stress_exp.Ring_bfc_unprotected in
  let r = c.Stress_exp.c_report in
  check Alcotest.int "fabric wedges: nothing completes" 0 c.Stress_exp.c_completed;
  Alcotest.(check bool) "runtime deadlock flagged" true (List.length r.Detect.r_deadlocks >= 1);
  (* BFC pauses queues, never ports: no PFC-style storm even while wedged *)
  check Alcotest.int "still no port-level storm" 0 (List.length r.Detect.r_storms)

let test_ring_bfc_filtered_silent () =
  let c = ring Stress_exp.Ring_bfc_filtered in
  check Alcotest.int "all flows complete" c.Stress_exp.c_injected c.Stress_exp.c_completed;
  Alcotest.(check bool) "every detector silent" true (silent c)

(* ------------------------------------------------------------------ *)
(* Clos leg *)

let test_bfc_clos_silent () =
  (* Clos shortest-path routing is statically deadlock-free and BFC never
     pauses whole ports: all three detectors must stay quiet, clean or
     under adversity. *)
  List.iter
    (fun scenario ->
      let c = clos Scheme.bfc scenario in
      check Alcotest.int
        (Printf.sprintf "all flows complete under %s" scenario.Scenario.sc_name)
        c.Stress_exp.c_injected c.Stress_exp.c_completed;
      Alcotest.(check bool)
        (Printf.sprintf "detectors silent under %s" scenario.Scenario.sc_name)
        true (silent c))
    [ Scenario.clean; Scenario.resume_loss () ]

let test_pfc_clos_flap_storms () =
  let c = clos Scheme.pfc_only (Scenario.flap_storm ()) in
  let r = c.Stress_exp.c_report in
  Alcotest.(check bool) "pause storms detected" true (List.length r.Detect.r_storms >= 1);
  check Alcotest.int "but no deadlock on a deadlock-free Clos" 0
    (List.length r.Detect.r_deadlocks)

let test_pfc_clos_victims () =
  (* head-of-line victims exist even on the clean run: port-level pauses
     punish flows that never congested the paused queue *)
  let c = clos Scheme.pfc_only Scenario.clean in
  let r = c.Stress_exp.c_report in
  Alcotest.(check bool) "victim flows classified" true (List.length r.Detect.r_victims >= 1);
  List.iter
    (fun v ->
      Alcotest.(check bool) "victim slowdown above threshold" true
        (v.Detect.v_slowdown >= 4.0);
      Alcotest.(check bool) "victim pause overlap positive" true (v.Detect.v_pause_ns > 0))
    r.Detect.r_victims

(* ------------------------------------------------------------------ *)
(* Replay determinism *)

let test_scenario_seed_determinism () =
  let h = Time.ms 1.0 in
  let a = Scenario.random_storm ~seed:78 ~horizon:h in
  let b = Scenario.random_storm ~seed:78 ~horizon:h in
  check Alcotest.string "same seed renders identically" (Scenario.to_string a)
    (Scenario.to_string b);
  let d = Scenario.random_storm ~seed:79 ~horizon:h in
  Alcotest.(check bool) "different seed differs" true
    (Scenario.to_string a <> Scenario.to_string d)

let test_replay_byte_identical () =
  let run () =
    let sc = Scenario.random_storm ~seed:78 ~horizon:(Time.ms 1.0) in
    let c =
      fresh
        (Stress_exp.clos_cell Exp_common.Smoke ~scheme:Scheme.pfc_only ~scenario:sc ~watchdog:wd
           ~seed:3)
    in
    ( Detect.summary c.Stress_exp.c_report,
      Printf.sprintf "%d/%d drops=%d wdog=%d done=%d" c.Stress_exp.c_completed
        c.Stress_exp.c_injected c.Stress_exp.c_drops c.Stress_exp.c_watchdog
        c.Stress_exp.c_t_done )
  in
  let s1, m1 = run () in
  let s2, m2 = run () in
  check Alcotest.string "detector report replays byte-identically" s1 s2;
  check Alcotest.string "run metrics replay byte-identically" m1 m2

(* fixtures/stress/smoke_summary.txt is the Smoke matrix at the default
   seed and watchdog. Regenerate it from the repository root with
     dune build && ./_build/default/bin/bfc_sim.exe stress --profile smoke \
       --summary-out test/fixtures/stress/smoke_summary.txt *)
let summary_fixture =
  if Sys.file_exists "fixtures/stress" then "fixtures/stress/smoke_summary.txt"
  else "test/fixtures/stress/smoke_summary.txt"

let test_smoke_matrix_matches_fixture () =
  let target = Stress_exp.target () in
  let got = Stress_exp.summary (target.Bfc_sim.Experiments.t_run Exp_common.Smoke) in
  let want = In_channel.with_open_bin summary_fixture In_channel.input_all in
  check Alcotest.string "smoke matrix matches the committed fixture" want got

let suite =
  [
    Alcotest.test_case "ring pfc deadlocks" `Quick test_ring_pfc_deadlocks;
    Alcotest.test_case "ring bfc unprotected deadlocks" `Quick
      test_ring_bfc_unprotected_deadlocks;
    Alcotest.test_case "ring bfc filtered silent" `Quick test_ring_bfc_filtered_silent;
    Alcotest.test_case "bfc clos silent" `Quick test_bfc_clos_silent;
    Alcotest.test_case "pfc clos flap storms" `Quick test_pfc_clos_flap_storms;
    Alcotest.test_case "pfc clos victims" `Quick test_pfc_clos_victims;
    Alcotest.test_case "scenario seed determinism" `Quick test_scenario_seed_determinism;
    Alcotest.test_case "replay byte identical" `Quick test_replay_byte_identical;
    Alcotest.test_case "smoke matrix matches fixture" `Quick test_smoke_matrix_matches_fixture;
  ]
