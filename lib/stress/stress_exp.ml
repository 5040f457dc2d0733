module Time = Bfc_engine.Time
module Flow = Bfc_net.Flow
module Runner = Bfc_sim.Runner
module Scheme = Bfc_sim.Scheme
module Exp_common = Bfc_sim.Exp_common
module Pool = Bfc_sim.Pool
module Experiments = Bfc_sim.Experiments
module Metrics = Bfc_sim.Metrics
module Injector = Bfc_fault.Injector

type cell = {
  c_scheme : string;
  c_scenario : string;
  c_injected : int;
  c_completed : int;
  c_drops : int;
  c_watchdog : int;
  c_stale : int;
  c_report : Detect.report;
  c_t_done : Time.t;
}

let latest_completion flows =
  List.fold_left
    (fun acc (f : Flow.t) ->
      if Flow.complete f && f.Flow.finish > acc then f.Flow.finish else acc)
    0 flows

(* ------------------------------------------------------------------ *)
(* Clos leg *)

(* A tighter shared buffer than the paper's 12 MB: at Smoke/Quick scale the
   default never fills, and a fabric that can't hit its PFC thresholds
   can't exhibit the pathologies this suite exists to measure. *)
let stress_buffer_bytes = 600_000

let clos_cell profile ~scheme ~scenario ~watchdog ~seed =
  let det = ref None in
  let extra = ref [] in
  let incast_degree = match profile with Exp_common.Smoke -> 8 | _ -> 16 in
  let s =
    {
      (Exp_common.std profile scheme) with
      Exp_common.sp_load = 0.5;
      sp_incast = Some { Exp_common.degree = incast_degree; agg_frac_of_paper = 0.5 };
      sp_seed = seed;
      sp_params =
        (fun p ->
          {
            p with
            Runner.pause_watchdog = (if watchdog > 0 then Some watchdog else None);
            buffer_bytes = stress_buffer_bytes;
          });
      sp_obs =
        (fun env ->
          let inj = Injector.attach env in
          det := Some (Detect.attach env);
          extra := Scenario.apply scenario ~env ~inj ());
    }
  in
  let r = Exp_common.run_std s in
  let env = r.Exp_common.env in
  let flows = r.Exp_common.flows @ !extra in
  let rep =
    match !det with
    | Some d -> Detect.report d ~flows
    | None -> invalid_arg "Stress_exp.clos_cell: monitor never attached"
  in
  {
    c_scheme = Scheme.name scheme;
    c_scenario = scenario.Scenario.sc_name;
    c_injected = Runner.injected env;
    c_completed = Runner.completed env;
    c_drops = Runner.total_drops env;
    c_watchdog = Metrics.watchdog_fires env;
    c_stale = Runner.stale_packets env;
    c_report = rep;
    c_t_done = latest_completion flows;
  }

(* ------------------------------------------------------------------ *)
(* Ring leg: the crafted cyclic-buffer-dependency scenario (App. B) *)

type ring_variant = Ring_pfc | Ring_bfc_unprotected | Ring_bfc_filtered

let ring_cell profile variant =
  let scheme, filter, label =
    match variant with
    | Ring_pfc -> (Scheme.pfc_only, false, "cbd-ring")
    | Ring_bfc_unprotected ->
      (Scheme.Bfc { Scheme.bfc_default with Scheme.queues = 2 }, false, "cbd-ring")
    | Ring_bfc_filtered ->
      (Scheme.Bfc { Scheme.bfc_default with Scheme.queues = 2 }, true, "cbd-ring+filter")
  in
  (* Small shared buffer so the cyclic overload reaches the pause
     thresholds quickly; no watchdog — the pure deadlock regime. *)
  let params =
    { Runner.default_params with Runner.deadlock_filter = filter; buffer_bytes = 50_000 }
  in
  let ring, env = Exp_common.prepare Exp_common.Ring scheme params in
  let det = Detect.attach env in
  let size, until, budget =
    match profile with
    | Exp_common.Smoke -> (300_000, Time.ms 1.0, Time.ms 2.0)
    | Exp_common.Quick -> (1_000_000, Time.ms 2.0, Time.ms 8.0)
    | Exp_common.Paper -> (5_000_000, Time.ms 4.0, Time.ms 40.0)
  in
  let flows = Exp_common.ring_flows ring ~size in
  Exp_common.execute env ~until ~budget (Exp_common.Flows flows);
  {
    c_scheme = Scheme.name scheme;
    c_scenario = label;
    c_injected = Runner.injected env;
    c_completed = Runner.completed env;
    c_drops = Runner.total_drops env;
    c_watchdog = Metrics.watchdog_fires env;
    c_stale = Runner.stale_packets env;
    c_report = Detect.report det ~flows;
    c_t_done = latest_completion flows;
  }

(* ------------------------------------------------------------------ *)
(* Table assembly *)

(* Recovery time per cell is its latest completion minus the same scheme's
   clean-run latest completion (shown only when every flow completed). *)
let matrix_table cells =
  let clean_base scheme =
    List.find_opt
      (fun c ->
        c.c_scheme = scheme && c.c_scenario = "clean" && c.c_completed = c.c_injected)
      cells
  in
  let rows =
    List.map
      (fun c ->
        let rep = c.c_report in
        let recovery =
          match clean_base c.c_scheme with
          | Some base when c.c_scenario <> "clean" && c.c_completed = c.c_injected ->
            Exp_common.cell (float_of_int (c.c_t_done - base.c_t_done) /. 1000.0)
          | Some _ when c.c_scenario = "clean" -> "0"
          | _ -> "-"
        in
        [
          c.c_scheme;
          c.c_scenario;
          Printf.sprintf "%d/%d" c.c_completed c.c_injected;
          string_of_int c.c_drops;
          string_of_int c.c_watchdog;
          string_of_int (List.length rep.Detect.r_storms);
          string_of_int rep.Detect.r_max_blast;
          string_of_int (List.length rep.Detect.r_deadlocks);
          string_of_int (List.length rep.Detect.r_victims);
          Exp_common.cell (Detect.victim_p99 rep);
          recovery;
        ])
      cells
  in
  {
    Exp_common.title =
      "BFC vs PFC under adversity: pause storms, runtime deadlock, victim flows, recovery";
    header =
      [
        "scheme";
        "scenario";
        "completed";
        "drops";
        "wdog";
        "storms";
        "blast";
        "deadlock";
        "victims";
        "victim p99";
        "recovery us";
      ];
    rows;
  }

let summary tables =
  String.concat ""
    (List.concat_map
       (fun (t : Exp_common.table) ->
         (t.Exp_common.title ^ "\n")
         :: List.map (fun row -> String.concat "|" row ^ "\n") (t.Exp_common.header :: t.Exp_common.rows))
       tables)

let target ?(seed = 1) ?(watchdog = Time.us 50.0) () =
  {
    Experiments.t_name = "stress";
    t_what = "scheme x fault-scenario adversity matrix (storms, deadlock, victims)";
    t_run =
      (fun profile ->
        let dur = Exp_common.duration profile ~dist:Bfc_workload.Dist.fb_hadoop in
        let scenarios =
          [
            Scenario.clean;
            Scenario.resume_loss ();
            Scenario.flap_storm ();
            Scenario.reboot ();
            Scenario.random_storm ~seed:(seed + 77) ~horizon:dur;
          ]
        in
        let schemes = [ Scheme.bfc; Scheme.pfc_only ] in
        let points =
          List.concat_map
            (fun scheme ->
              List.map
                (fun sc () -> clos_cell profile ~scheme ~scenario:sc ~watchdog ~seed)
                scenarios)
            schemes
          @ [
              (fun () -> ring_cell profile Ring_pfc);
              (fun () -> ring_cell profile Ring_bfc_unprotected);
              (fun () -> ring_cell profile Ring_bfc_filtered);
            ]
        in
        [ matrix_table (Pool.run points) ]);
  }
