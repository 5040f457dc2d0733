(* Command-line front end for the BFC reproduction.

   bfc_sim list                         -- list experiment targets
   bfc_sim run fig9 fig13 --profile quick --jobs 2 --csv-dir results
   bfc_sim sweep --scheme bfc --load 0.6 --dist fb_hadoop
                                        -- one ad-hoc Clos run *)

open Cmdliner
module Experiments = Bfc_sim.Experiments
module Exp_common = Bfc_sim.Exp_common
module Scheme = Bfc_sim.Scheme
module Runner = Bfc_sim.Runner
module Metrics = Bfc_sim.Metrics
module Dist = Bfc_workload.Dist

let profile_conv =
  Arg.conv
    ( (fun s -> try Ok (Exp_common.profile_of_string s) with Invalid_argument m -> Error (`Msg m)),
      fun fmt p ->
        Format.pp_print_string fmt
          (match p with Exp_common.Smoke -> "smoke" | Quick -> "quick" | Paper -> "paper") )

let profile_arg =
  Arg.(value
      & opt profile_conv Exp_common.Quick
      & info [ "profile" ] ~docv:"PROFILE" ~doc:"Scale: smoke, quick or paper.")

(* A value that must pass [ok]: anything else is a usage error. *)
let checked parse pp ~expected ok =
  Arg.conv'
    ( (fun s ->
        match parse s with
        | Some v when ok v -> Ok v
        | _ -> Error (Printf.sprintf "expected %s, got %s" expected s)),
      pp )

let positive = checked int_of_string_opt Format.pp_print_int ~expected:"an integer >= 1" (( <= ) 1)

let jobs_arg =
  Arg.(value & opt positive (Domain.recommended_domain_count ())
      & info [ "jobs" ] ~docv:"N" ~absent:"the number of cores"
          ~doc:"Run sweep points over $(docv) domains; tables are byte-identical for any value.")

let csv_dir_arg =
  Arg.(value & opt (some string) None
      & info [ "csv-dir" ] ~docv:"DIR" ~doc:"Write each table as CSV into $(docv).")

(* Streaming-observability flags of sweep and stream. They are not on
   run: its targets run many sweep points, which would all write the same
   flowlog path, and their traces are held in full anyway. *)
let streaming_flag =
  Arg.(value & flag
      & info [ "streaming" ]
          ~doc:
            "Bounded-memory observability: FCT stats go through mergeable quantile sketches \
             instead of exact per-flow samples.")

let flowlog_arg =
  Arg.(value & opt (some string) None
      & info [ "flowlog" ] ~docv:"FILE"
          ~doc:
            "Write completed flows as a binary flow trace to $(docv) (chunked, \
             constant-memory; replay with `bfc_sim flowlog`). Implies --streaming.")

let alpha_arg =
  let sketch_alpha =
    checked float_of_string_opt Format.pp_print_float ~expected:"a number in (0, 0.5)" (fun a ->
        a > 0.0 && a < 0.5)
  in
  Arg.(value & opt sketch_alpha 0.01
      & info [ "alpha" ] ~docv:"A"
          ~doc:"Relative-error bound of the streaming quantile sketches (default 1%).")

let progress_flag =
  Arg.(value & flag
      & info [ "progress" ]
          ~doc:"Print a live one-line progress report to stderr every sim-millisecond.")

let list_cmd =
  let run () =
    List.iter
      (fun t -> Printf.printf "%-10s %s\n" t.Experiments.t_name t.Experiments.t_what)
      Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List experiment targets") Term.(const run $ const ())

let run_cmd =
  let targets = Arg.(value & pos_all string [] & info [] ~docv:"TARGET") in
  let run profile jobs csv_dir targets =
    match Experiments.resolve targets with
    | Error m -> Error (`Msg m)
    | Ok chosen ->
      List.iter (fun t -> ignore (Experiments.run ?csv_dir ~jobs profile t)) chosen;
      Ok ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run experiment targets (all if none given)")
    Term.(term_result ~usage:true
            (const run $ profile_arg $ jobs_arg $ csv_dir_arg $ targets))

let scheme_conv =
  let parse = function
    | "bfc" -> Ok Scheme.bfc
    | "bfc128" -> Ok (Scheme.bfc_q 128)
    | "bfc-srf" -> Ok Scheme.bfc_srf
    | "bfc-credit" -> Ok Scheme.bfc_credit
    | "bfc-cc" -> Ok (Scheme.Bfc { Scheme.bfc_default with Scheme.delay_cc = true })
    | "ideal-fq" -> Ok Scheme.Ideal_fq
    | "ideal-srf" -> Ok Scheme.Ideal_srf
    | "dctcp" -> Ok Scheme.dctcp
    | "dctcp-ss" -> Ok (Scheme.Dctcp { slow_start = true })
    | "dcqcn" -> Ok Scheme.dcqcn
    | "hpcc" -> Ok Scheme.hpcc
    | "hpcc-pfc" -> Ok Scheme.hpcc_pfc
    | "swift" -> Ok Scheme.swift
    | "timely" -> Ok Scheme.timely
    | "pfc" -> Ok Scheme.pfc_only
    | "expresspass" -> Ok Scheme.expresspass
    | "homa" -> Ok Scheme.homa
    | "homa-ecmp" -> Ok Scheme.homa_ecmp
    | s -> Error (`Msg (Printf.sprintf "unknown scheme %s" s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Scheme.name s))

let dist_conv =
  Arg.conv
    ( (fun s -> try Ok (Dist.by_name s) with Invalid_argument m -> Error (`Msg m)),
      fun fmt d -> Format.pp_print_string fmt (Dist.name d) )

let sweep_cmd =
  let module Time = Bfc_engine.Time in
  let scheme = Arg.(value & opt scheme_conv Scheme.bfc & info [ "scheme" ] ~docv:"SCHEME") in
  let dist = Arg.(value & opt dist_conv Dist.fb_hadoop & info [ "dist" ] ~docv:"DIST") in
  let load = Arg.(value & opt float 0.6 & info [ "load" ] ~docv:"LOAD") in
  let incast = Arg.(value & opt (some int) None & info [ "incast" ] ~docv:"DEGREE") in
  let watchdog =
    Arg.(value & opt float 0.0
        & info [ "watchdog" ] ~docv:"US"
            ~doc:"Pause-watchdog timeout in microseconds on every device; 0 disables it.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ]) in
  let run profile scheme dist load incast watchdog seed streaming flowlog alpha progress =
    let s =
      {
        (Exp_common.std profile scheme) with
        Exp_common.sp_dist = dist;
        sp_load = load;
        sp_incast =
          Option.map (fun degree -> { Exp_common.default_incast with Exp_common.degree }) incast;
        sp_seed = seed;
        sp_stream =
          (if streaming || flowlog <> None || progress then
             Some { Exp_common.alpha; flowlog; progress }
           else None);
        sp_params =
          (fun p ->
            {
              p with
              Runner.pause_watchdog =
                (if watchdog > 0.0 then Some (Time.us watchdog) else None);
            });
      }
    in
    let r = Exp_common.run_std s in
    Printf.printf "scheme=%s dist=%s load=%.2f completed=%d/%d drops=%d\n" (Scheme.name scheme)
      (Dist.name dist) load (Runner.completed r.Exp_common.env) (Runner.injected r.Exp_common.env)
      (Runner.total_drops r.Exp_common.env);
    if watchdog > 0.0 then
      Printf.printf "watchdog_fires=%d\n" (Metrics.watchdog_fires r.Exp_common.env);
    Exp_common.print_table
      {
        Exp_common.title = "FCT slowdown";
        header = [ "bucket"; "n"; "avg"; "p50"; "p95"; "p99" ];
        rows = Exp_common.fct_rows r;
      }
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"One ad-hoc Clos run with chosen scheme/workload/load")
    Term.(const run $ profile_arg $ scheme $ dist $ load $ incast $ watchdog $ seed
          $ streaming_flag $ flowlog_arg $ alpha_arg $ progress_flag)

let trace_cmd =
  let module Time = Bfc_engine.Time in
  let module Telemetry = Bfc_sim.Telemetry in
  let scheme = Arg.(value & pos 0 scheme_conv Scheme.bfc & info [] ~docv:"SCHEME") in
  let dist = Arg.(value & opt dist_conv Dist.fb_hadoop & info [ "dist" ] ~docv:"DIST") in
  let load = Arg.(value & opt float 0.6 & info [ "load" ] ~docv:"LOAD") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ]) in
  let trace_out =
    Arg.(value & opt string "trace.json"
        & info [ "trace-out" ] ~docv:"FILE"
            ~doc:"Chrome trace-event JSON output (open in ui.perfetto.dev).")
  in
  let series_out =
    Arg.(value & opt (some string) None
        & info [ "series-out" ] ~docv:"FILE" ~doc:"Gauge time-series CSV output.")
  in
  let jsonl_out =
    Arg.(value & opt (some string) None
        & info [ "jsonl-out" ] ~docv:"FILE" ~doc:"Raw trace records as JSON lines.")
  in
  let trace_cap =
    Arg.(value & opt int 0
        & info [ "trace-cap" ] ~docv:"N"
            ~doc:"Trace ring capacity (oldest records overwritten); 0 = unbounded.")
  in
  let series_period =
    Arg.(value & opt float 10.0
        & info [ "series-period" ] ~docv:"US" ~doc:"Gauge sampling period in microseconds.")
  in
  let run profile scheme dist load seed trace_out series_out jsonl_out trace_cap series_period =
    let tel = ref None in
    let s =
      {
        (Exp_common.std profile scheme) with
        Exp_common.sp_dist = dist;
        sp_load = load;
        sp_seed = seed;
        sp_obs =
          (fun env ->
            tel :=
              Some
                (Telemetry.attach
                   ~config:
                     {
                       Telemetry.t_enabled = true;
                       t_trace = true;
                       t_trace_capacity = trace_cap;
                       t_series_period = Some (Time.us series_period);
                     }
                   env));
      }
    in
    let r = Exp_common.run_std s in
    let env = r.Exp_common.env in
    let tel =
      match !tel with
      | Some t -> t
      | None -> failwith "bfc_sim trace: the run never attached telemetry"
    in
    let with_out path f =
      let oc = open_out path in
      f oc;
      close_out oc
    in
    with_out trace_out (Telemetry.write_trace tel);
    Printf.printf "wrote %s (%d trace records)\n" trace_out
      (match Telemetry.trace tel with
      | Some b -> Bfc_obs.Trace.length b
      | None -> 0);
    (match series_out with
    | None -> ()
    | Some path ->
      with_out path (Telemetry.write_series tel);
      Printf.printf "wrote %s (%d samples)\n" path
        (match Telemetry.series tel with Some s -> Bfc_obs.Series.n_samples s | None -> 0));
    (match jsonl_out with
    | None -> ()
    | Some path -> with_out path (Telemetry.write_jsonl tel));
    Printf.printf "scheme=%s dist=%s load=%.2f completed=%d/%d drops=%d\n" (Scheme.name scheme)
      (Dist.name dist) load (Runner.completed env) (Runner.injected env) (Runner.total_drops env);
    Printf.printf "counters: %s\n" (Telemetry.counters_json tel);
    Printf.printf "engine: %s\n" (Telemetry.engine_profile_json env)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "One Clos run with the telemetry subsystem attached: packet-lifecycle Perfetto trace, \
          gauge time series and engine self-profile")
    Term.(const run $ profile_arg $ scheme $ dist $ load $ seed $ trace_out $ series_out
          $ jsonl_out $ trace_cap $ series_period)

let faults_cmd =
  let module Time = Bfc_engine.Time in
  let module Topology = Bfc_net.Topology in
  let module Flow = Bfc_net.Flow in
  let module Loss = Bfc_fault.Loss in
  let module Injector = Bfc_fault.Injector in
  let module Auditor = Bfc_fault.Auditor in
  let scheme = Arg.(value & opt scheme_conv Scheme.bfc & info [ "scheme" ] ~docv:"SCHEME") in
  let senders = Arg.(value & opt int 32 & info [ "senders" ] ~docv:"N") in
  let size = Arg.(value & opt int 64_000 & info [ "size" ] ~docv:"BYTES") in
  let resume_loss =
    Arg.(value & opt float 0.0
        & info [ "resume-loss" ] ~docv:"P" ~doc:"Drop each Resume frame with probability $(docv).")
  in
  let ctrl_loss =
    Arg.(value & opt float 0.0
        & info [ "ctrl-loss" ] ~docv:"P"
            ~doc:"Drop each control frame (Pause/Resume/bitmap/PFC) with probability $(docv).")
  in
  let data_loss =
    Arg.(value & opt float 0.0
        & info [ "data-loss" ] ~docv:"P"
            ~doc:"Corrupt each data packet with probability $(docv) (lost at the receiver).")
  in
  let watchdog =
    Arg.(value & opt float 50.0
        & info [ "watchdog" ] ~docv:"US"
            ~doc:"Pause-watchdog timeout in microseconds; 0 disables it.")
  in
  let flaps =
    Arg.(value & opt int 0
        & info [ "flaps" ] ~docv:"N" ~doc:"Flap the bottleneck link $(docv) times (10us down/100us period).")
  in
  let reboot_at =
    Arg.(value & opt (some float) None
        & info [ "reboot-at" ] ~docv:"US" ~doc:"Crash and reboot the switch at $(docv) microseconds.")
  in
  let no_audit = Arg.(value & flag & info [ "no-audit" ] ~doc:"Skip the invariant auditor.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ]) in
  let run scheme senders size resume_loss ctrl_loss data_loss watchdog flaps reboot_at no_audit seed
      =
    List.iter
      (fun (flag, p) ->
        if not (p >= 0.0 && p <= 1.0) then begin
          Printf.eprintf "bfc_sim: %s must be a probability in [0, 1] (got %g)\n" flag p;
          exit 2
        end)
      [ ("--resume-loss", resume_loss); ("--ctrl-loss", ctrl_loss); ("--data-loss", data_loss) ];
    let sim = Bfc_engine.Sim.create () in
    let st = Topology.star sim ~senders ~gbps:100.0 ~prop:(Time.us 1.0) in
    let params =
      {
        Runner.default_params with
        Runner.pause_watchdog = (if watchdog > 0.0 then Some (Time.us watchdog) else None);
        seed;
      }
    in
    let env = Runner.setup ~topo:st.Topology.s ~scheme ~params in
    let inj = Injector.attach env in
    let loss = Loss.create ~seed in
    if resume_loss > 0.0 then Loss.add_prob loss ~p:resume_loss Loss.resumes;
    if ctrl_loss > 0.0 then Loss.add_prob loss ~p:ctrl_loss Loss.ctrl;
    if data_loss > 0.0 then Loss.add_prob loss ~corrupt:true ~p:data_loss Loss.data;
    Injector.set_loss_everywhere inj loss;
    let lossy = resume_loss > 0.0 || ctrl_loss > 0.0 || flaps > 0 || reboot_at <> None in
    let aud =
      if no_audit then None
      else
        Some
          (Auditor.attach
             ~config:
               {
                 Auditor.default_config with
                 Auditor.check_pairing = not lossy;
                 fail_fast = false;
               }
             env)
    in
    if flaps > 0 then
      Injector.flap inj ~gid:st.Topology.st_bottleneck_gid ~start:(Time.us 30.0)
        ~down_for:(Time.us 10.0) ~period:(Time.us 100.0) ~count:flaps;
    (match reboot_at with
    | None -> ()
    | Some us ->
      ignore
        (Bfc_engine.Sim.at sim (Time.us us) (fun () ->
             ignore
               (Injector.reboot_switch inj ~node:st.Topology.st_switch ~down_for:(Time.us 20.0) ()))));
    let flows =
      List.init senders (fun i ->
          Flow.make ~id:i ~src:st.Topology.st_senders.(i) ~dst:st.Topology.st_receiver ~size
            ~arrival:(Time.us (0.1 *. float_of_int i))
            ~is_incast:true ())
    in
    Runner.inject env flows;
    Runner.run env ~until:(Time.ms 1.0);
    Runner.drain env ~budget:(Time.ms 30.0);
    Printf.printf "scheme=%s completed=%d/%d drops=%d faults=%d (%d corrupted) watchdog=%d reboots=%d\n"
      (Scheme.name scheme) (Runner.completed env) (Runner.injected env) (Runner.total_drops env)
      (Injector.faults_injected inj) (Loss.corrupted loss) (Metrics.watchdog_fires env)
      (Metrics.reboots env);
    match aud with
    | None -> ()
    | Some aud ->
      Auditor.check aud;
      Printf.printf "audit: %d sweeps, %d violations\n" (Auditor.checks_run aud)
        (Auditor.violation_count aud);
      List.iter (fun v -> Printf.printf "  ! %s\n" (Auditor.to_string v)) (Auditor.violations aud)
  in
  Cmd.v
    (Cmd.info "faults" ~doc:"Incast under injected faults with the invariant auditor attached")
    Term.(const run $ scheme $ senders $ size $ resume_loss $ ctrl_loss $ data_loss $ watchdog
          $ flaps $ reboot_at $ no_audit $ seed)

let stress_cmd =
  let module Time = Bfc_engine.Time in
  let module Stress_exp = Bfc_stress.Stress_exp in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let watchdog =
    Arg.(value & opt float 50.0
        & info [ "watchdog" ] ~docv:"US"
            ~doc:
              "Pause-watchdog timeout in microseconds on every device in the Clos leg; 0 \
               disables it. The watchdog is what un-wedges peers of a crashed switch whose \
               Resume frames died with it (see README). The ring leg never arms one.")
  in
  let summary_out =
    Arg.(value & opt (some string) None
        & info [ "summary-out" ] ~docv:"FILE"
            ~doc:
              "Also write the matrix in canonical pipe-separated form to $(docv) — the replay \
               fixture format: same seed, same file bytes.")
  in
  let run profile seed jobs watchdog summary_out csv_dir =
    let target = Stress_exp.target ~seed ~watchdog:(Time.us watchdog) () in
    let tables = Experiments.run ?csv_dir ~jobs profile target in
    match summary_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      List.iter
        (fun (t : Exp_common.table) ->
          output_string oc (t.Exp_common.title ^ "\n");
          List.iter
            (fun row -> output_string oc (String.concat "|" row ^ "\n"))
            (t.Exp_common.header :: t.Exp_common.rows))
        tables;
      close_out oc;
      Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Adversity matrix: scheme x fault scenario on the Clos fabric plus the crafted \
          cyclic-buffer-dependency ring, with pause-storm / runtime-deadlock / victim-flow \
          detectors attached")
    Term.(const run $ profile_arg $ seed $ jobs_arg $ watchdog $ summary_out $ csv_dir_arg)

let stream_cmd =
  let flows =
    Arg.(value & opt positive 2_000_000
        & info [ "flows" ] ~docv:"N" ~doc:"Number of single-MTU flows to push through the fabric.")
  in
  let exact =
    Arg.(value & flag
        & info [ "exact" ]
            ~doc:
              "Retain every flow record and exact slowdown sample instead of streaming \
               (the memory baseline CI's streaming gate compares against).")
  in
  let scheme = Arg.(value & opt scheme_conv Scheme.bfc & info [ "scheme" ] ~docv:"SCHEME") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ]) in
  let run flows exact scheme seed flowlog alpha progress =
    if exact && (flowlog <> None || progress) then
      Error (`Msg "--flowlog and --progress need a streaming run; drop --exact")
    else
      let r =
        Exp_common.run_stream ~scheme ~seed ~alpha ?flowlog ~progress ~streaming:(not exact) ~flows
          ()
      in
      let peak_bytes = float_of_int r.Exp_common.sr_peak_heap_words *. 8.0 in
      Printf.printf
        "mode=%s flows=%d/%d events=%d elapsed=%.2fs peak_heap=%.1fMB flows_per_gb=%.0f\n"
        (if r.Exp_common.sr_streaming then "streaming" else "exact")
        r.Exp_common.sr_completed r.Exp_common.sr_injected r.Exp_common.sr_events
        r.Exp_common.sr_elapsed_s (peak_bytes /. 1e6)
        (float_of_int r.Exp_common.sr_completed /. (peak_bytes /. 1e9));
      let row (s : Metrics.fct_stats) =
        [
          s.Metrics.bucket;
          string_of_int s.Metrics.count;
          Exp_common.cell s.Metrics.avg;
          Exp_common.cell s.Metrics.p50;
          Exp_common.cell s.Metrics.p95;
          Exp_common.cell s.Metrics.p99;
        ]
      in
      Exp_common.print_table
        {
          Exp_common.title = "FCT slowdown";
          header = [ "bucket"; "n"; "avg"; "p50"; "p95"; "p99" ];
          rows = row r.Exp_common.sr_overall :: List.map row r.Exp_common.sr_table;
        };
      Ok ()
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Memory-scale run: millions of single-MTU flows through a Quick Clos with \
          sliding-window arrival generation, sketch-backed FCT stats and per-flow transport \
          state reclaimed after completion — resident memory tracks flows in flight, not flows \
          ever run")
    Term.(term_result ~usage:true
            (const run $ flows $ exact $ scheme $ seed $ flowlog_arg $ alpha_arg $ progress_flag))

let flowlog_cmd =
  let module Flowlog = Bfc_obs.Flowlog in
  let module Sketch = Bfc_obs.Sketch in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run path =
    let sk = Sketch.create ~alpha:0.01 () in
    let n = ref 0 and incast = ref 0 and bytes = ref 0 in
    let t_lo = ref infinity and t_hi = ref neg_infinity in
    let truncated =
      Flowlog.iter_file path ~f:(fun r ->
          incr n;
          if r.Flowlog.incast then incr incast;
          bytes := !bytes + r.Flowlog.size;
          if r.Flowlog.arrival < !t_lo then t_lo := r.Flowlog.arrival;
          if r.Flowlog.arrival > !t_hi then t_hi := r.Flowlog.arrival;
          if r.Flowlog.ideal > 0.0 then Sketch.add sk (r.Flowlog.fct /. r.Flowlog.ideal))
    in
    Printf.printf "flowlog %s: records=%d incast=%d bytes=%d truncated=%b\n" path !n !incast !bytes
      truncated;
    if !n > 0 then
      Printf.printf "arrivals: %.6fs .. %.6fs\n" !t_lo !t_hi;
    if not (Sketch.is_empty sk) then
      Printf.printf "slowdown: mean=%.3f p50=%.3f p95=%.3f p99=%.3f\n" (Sketch.mean sk)
        (Sketch.percentile sk 50.0) (Sketch.percentile sk 95.0) (Sketch.percentile sk 99.0);
    if truncated then Stdlib.exit 3
  in
  Cmd.v
    (Cmd.info "flowlog"
       ~doc:
         "Replay a binary flow trace incrementally (O(chunk) memory however large the file) and \
          summarise it; exits 3 if the file ends mid-chunk")
    Term.(const run $ path)

let lint_cmd =
  let paths =
    Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc:"Files or directories to lint.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let show_suppressed =
    Arg.(value & flag & info [ "suppressed" ] ~doc:"Also print suppressed findings.")
  in
  let rules = Arg.(value & flag & info [ "rules" ] ~doc:"List every rule and exit.") in
  let run paths json show_suppressed rules =
    if rules then print_string (Bfclint.Driver.render_rules ())
    else begin
      let paths = match paths with [] -> [ "lib" ] | ps -> ps in
      let report = Bfclint.Driver.lint_paths paths in
      print_string
        (if json then Bfclint.Driver.render_json report
         else Bfclint.Driver.render_human ~show_suppressed report);
      Stdlib.exit (Bfclint.Driver.exit_code report)
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static dataplane-feasibility, determinism and robustness checks over the sources \
          (compile-time companion to the runtime fault auditor)")
    Term.(const run $ paths $ json $ show_suppressed $ rules)

let () =
  let doc = "Backpressure Flow Control (NSDI 2022) reproduction" in
  let info = Cmd.info "bfc_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; sweep_cmd; trace_cmd; faults_cmd; stress_cmd; stream_cmd;
            flowlog_cmd; lint_cmd ]))
