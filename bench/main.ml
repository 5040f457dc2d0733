(* The benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's per-experiment index) and runs Bechamel microbenchmarks
   of BFC's per-packet dataplane operations.

   Usage:
     dune exec bench/main.exe                 -- all targets, quick profile
     dune exec bench/main.exe -- fig9 fig13   -- selected targets
     dune exec bench/main.exe -- --profile paper fig11
     dune exec bench/main.exe -- --jobs 8 fig12   -- sweeps on 8 domains
     dune exec bench/main.exe -- --micro      -- only the microbenchmarks
     dune exec bench/main.exe -- --macro      -- engine macro benchmark:
                                                 events/sec and minor words
                                                 per event on the reference
                                                 workload (writes
                                                 BENCH_engine.json)
     dune exec bench/main.exe -- --sched      -- scheduler microbenchmark:
                                                 timing-wheel push/pop and
                                                 rearm throughput at 1k/32k/
                                                 256k pending events (adds a
                                                 "sched" block to
                                                 BENCH_engine.json; combines
                                                 with --macro)
     dune exec bench/main.exe -- --stress     -- events/sec under fault load
                                                 (flap-storm scenario +
                                                 injector + stress detectors)
                                                 vs the clean run (adds a
                                                 "stress" block; combines
                                                 with --macro/--sched)
     dune exec bench/main.exe -- --pdes       -- sequential vs 2-shard PDES
                                                 on the same workload: output
                                                 equality asserted, wall-clock
                                                 ratio recorded with detected
                                                 core count (adds a "pdes"
                                                 block; combines with the
                                                 flags above)
     dune exec bench/main.exe -- --streaming -- sketch accuracy vs exact
                                                 on the same run, plus the
                                                 run_stream memory-scaling
                                                 legs (N/4 and N streaming
                                                 flows vs an exact baseline;
                                                 N = BFC_STREAM_FLOWS or 2M;
                                                 adds a "streaming" block)
     dune exec bench/main.exe -- --engine-profile
                                              -- one quick run, engine
                                                 self-profile JSON on stdout *)

module Experiments = Bfc_sim.Experiments
module Exp_common = Bfc_sim.Exp_common
module Pdes = Bfc_sim.Pdes
module Pool = Bfc_sim.Pool
module Runner = Bfc_sim.Runner
module Scheme = Bfc_sim.Scheme
module Sim = Bfc_engine.Sim

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: the constant-time per-packet operations the
   paper argues fit a switch pipeline (§3.3). *)

let micro_tests () =
  let open Bechamel in
  let ft = Bfc_core.Flow_table.create ~egresses:32 ~queues_per_port:32 ~mult:100 in
  let pc = Bfc_core.Pause_counter.create ~ingresses:32 ~max_upstream_q:128 in
  let rng = Bfc_util.Rng.create 99 in
  let dqa = Bfc_core.Dqa.create ~egresses:32 ~queues:31 ~policy:Bfc_core.Dqa.Dynamic ~rng in
  let counter = ref 0 in
  let t_ft =
    Test.make ~name:"flow_table lookup+update"
      (Staged.stage (fun () ->
           incr counter;
           let e = Bfc_core.Flow_table.entry ft ~egress:(!counter land 31) ~fid_hash:!counter in
           e.Bfc_core.Flow_table.size <- e.Bfc_core.Flow_table.size + 1;
           e.Bfc_core.Flow_table.size <- e.Bfc_core.Flow_table.size - 1))
  in
  let t_pc =
    Test.make ~name:"pause_counter incr+decr"
      (Staged.stage (fun () ->
           incr counter;
           let ingress = !counter land 31 and upstream_q = !counter land 127 in
           ignore (Bfc_core.Pause_counter.incr pc ~ingress ~upstream_q);
           ignore (Bfc_core.Pause_counter.decr pc ~ingress ~upstream_q)))
  in
  let t_dqa =
    Test.make ~name:"dqa assign+release"
      (Staged.stage (fun () ->
           incr counter;
           let egress = !counter land 31 in
           let q = Bfc_core.Dqa.assign dqa ~egress ~fid_hash:!counter in
           Bfc_core.Dqa.mark_occupied dqa ~egress ~queue:q;
           Bfc_core.Dqa.mark_empty dqa ~egress ~queue:q))
  in
  let t_it =
    let tbl = Bfc_util.Int_table.create ~size:4096 () in
    for k = 0 to 2047 do
      Bfc_util.Int_table.set tbl (k * 7919) k
    done;
    Test.make ~name:"int_table find (2k entries)"
      (Staged.stage (fun () ->
           incr counter;
           match Bfc_util.Int_table.find_exn tbl (!counter land 2047 * 7919) with
           | exception Not_found -> ()
           | v -> ignore (Sys.opaque_identity v)))
  in
  let t_th =
    Test.make ~name:"threshold compute"
      (Staged.stage (fun () ->
           incr counter;
           ignore
             (Bfc_core.Threshold.bytes ~hrtt:2000 ~gbps:100.0
                ~n_active:(1 + (!counter land 31))
                ~factor:1.0)))
  in
  [ t_ft; t_pc; t_dqa; t_it; t_th ]

let run_micro () =
  let open Bechamel in
  print_endline "\n################ microbenchmarks: BFC per-packet dataplane ops";
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    let raw = Benchmark.all cfg [ instance ] test in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instance
        raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-36s %8.1f ns/op\n%!" name est
        | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
      results
  in
  List.iter (fun t -> benchmark (Bechamel.Test.make_grouped ~name:"bfc" [ t ])) (micro_tests ())

(* ------------------------------------------------------------------ *)
(* Macro benchmark: end-to-end event throughput of the engine on a
   quick-profile clos run, plus the domain-pool sweep speedup. Results go
   to BENCH_engine.json so CI can archive them across commits. *)

let quick_setup seed =
  { (Exp_common.std Exp_common.Quick Scheme.bfc) with Exp_common.sp_seed = seed }

let time_run f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_macro ~jobs () =
  Printf.printf "\n################ macro benchmark: event engine (jobs=%d)\n%!" jobs;
  (* 1. single-domain event throughput. Minor-heap allocation is measured
     around the whole run ([Gc.quick_stat] deltas) and reported per
     executed event — the figure the typed closure-free dispatch is meant
     to drive toward zero on the steady-state path (setup and flow
     records keep it above zero). *)
  let g0 = Gc.quick_stat () in
  let r, secs = time_run (fun () -> Exp_common.run_std (quick_setup 1)) in
  let g1 = Gc.quick_stat () in
  let events = Runner.events_executed r.Exp_common.env in
  let eps = float_of_int events /. secs in
  let mwpe = (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int (max 1 events) in
  Printf.printf "  events %d, wall %.2f s, %.0f events/sec, %.1f minor words/event\n%!" events
    secs eps mwpe;
  let pool = Runner.pool r.Exp_common.env in
  let allocated = Bfc_net.Packet.Pool.allocated pool in
  let recycled = Bfc_net.Packet.Pool.recycled pool in
  let recycle_ratio = float_of_int recycled /. float_of_int (max 1 (allocated + recycled)) in
  Printf.printf "  packets allocated     %d\n" allocated;
  Printf.printf "  packets recycled      %d (%.1f%% of acquires)\n%!" recycled
    (100.0 *. recycle_ratio);
  (* engine self-profile: event-class mix, queue pressure, handle reuse *)
  let prof = Sim.profile (Runner.sim r.Exp_common.env) in
  Printf.printf "  event classes         typed %d, one-shot %d, reusable %d, ticker %d\n"
    prof.Sim.p_typed prof.Sim.p_one_shot prof.Sim.p_reusable prof.Sim.p_ticker;
  Printf.printf "  queue high-water      %d (capacity %d)\n" prof.Sim.p_heap_hwm
    prof.Sim.p_heap_capacity;
  Printf.printf "  handle rearms         %d, cancels %d\n%!" prof.Sim.p_rearms prof.Sim.p_cancels;
  let profile_json = Bfc_sim.Telemetry.engine_profile_json r.Exp_common.env in
  (* 2. sweep speedup: the same independent tasks, 1 domain vs N. On a
     single-core container (or with jobs=1) the ratio measures scheduling
     overhead, not parallelism, so it is reported as null with a note. *)
  let cores = Pool.recommended_jobs () in
  let tasks = max 4 jobs in
  let thunks =
    List.init tasks (fun i -> fun () ->
        Runner.events_executed (Exp_common.run_std (quick_setup (i + 1))).Exp_common.env)
  in
  let seq_events, seq_secs = time_run (fun () -> Pool.run ~jobs:1 thunks) in
  let par_events, par_secs = time_run (fun () -> Pool.run ~jobs thunks) in
  assert (seq_events = par_events);
  let ratio = seq_secs /. par_secs in
  let speedup_json =
    if cores = 1 || jobs <= 1 then
      Printf.sprintf
        {|"speedup": null,
    "note": "not a parallelism measurement: %s (raw ratio %.2f)"|}
        (if cores = 1 then "single-core container" else "jobs=1")
        ratio
    else Printf.sprintf {|"speedup": %.2f|} ratio
  in
  Printf.printf "  sweep of %d tasks      jobs=1 %.2fs, jobs=%d %.2fs -> %.2fx%s\n%!" tasks
    seq_secs jobs par_secs ratio
    (if cores = 1 || jobs <= 1 then " (not meaningful here, recorded as null)" else "");
  (* Optional seed comparison: BFC_BENCH_BASELINE_S holds the wall seconds
     the pre-optimization engine needs for this exact workload (measured by
     building the seed revision and timing the same run_std call). *)
  let comparison =
    match Sys.getenv_opt "BFC_BENCH_BASELINE_S" with
    | None -> ""
    | Some s -> (
      match float_of_string_opt s with
      | None -> ""
      | Some baseline_s ->
        Printf.sprintf
          {|,
  "vs_seed": {
    "workload": "run_std quick bfc seed=1",
    "seed_seconds": %.3f,
    "seconds": %.3f,
    "improvement_pct": %.1f
  }|}
          baseline_s secs
          (100.0 *. ((baseline_s /. secs) -. 1.0)))
  in
  Printf.sprintf
    {|"engine": {
    "workload": "run_std quick bfc seed=1",
    "events": %d,
    "seconds": %.3f,
    "events_per_sec": %.0f,
    "minor_words_per_event": %.2f
  },
  "packet_pool": {
    "allocated": %d,
    "recycled": %d,
    "recycle_ratio": %.4f
  },
  "sweep": {
    "tasks": %d,
    "jobs": %d,
    "cores": %d,
    "shards": %d,
    "seq_seconds": %.3f,
    "par_seconds": %.3f,
    %s
  },
  "profile": %s%s|}
    events secs eps mwpe allocated recycled recycle_ratio tasks jobs cores
    (Pdes.default_shards ()) seq_secs par_secs speedup_json profile_json comparison

(* ------------------------------------------------------------------ *)
(* PDES benchmark: the same quick reference workload, sequential vs the
   2-shard conservative-window run. The sharded leg must produce the
   identical output (the tentpole's byte-identity property — asserted
   here on counters and FCT rows), so the only question is wall clock.
   Events/sec for both legs use the sequential event count: same
   delivered workload, throughput on a wall-clock basis. On a
   single-core container the ratio measures synchronization overhead,
   not parallelism, and is recorded as null with the raw ratio noted —
   same convention as the sweep block. *)

let run_pdes () =
  Printf.printf "\n################ pdes benchmark: sequential vs 2-shard\n%!";
  let cores = Pool.recommended_jobs () in
  let shards = 2 in
  let setup = quick_setup 1 in
  let rseq, seq_secs = time_run (fun () -> Exp_common.run_std_seq setup) in
  let events = Runner.events_executed rseq.Exp_common.env in
  let seq_eps = float_of_int events /. seq_secs in
  Printf.printf "  [seq  ] events %d, wall %.2f s, %.0f events/sec\n%!" events seq_secs seq_eps;
  let rsh, sh_secs = time_run (fun () -> Exp_common.run_std_sharded setup ~shards) in
  if
    Runner.injected rseq.Exp_common.env <> Runner.injected rsh.Exp_common.env
    || Runner.completed rseq.Exp_common.env <> Runner.completed rsh.Exp_common.env
    || Exp_common.fct_rows rseq <> Exp_common.fct_rows rsh
  then failwith "pdes bench diverged: sharded output differs from sequential";
  let sh_eps = float_of_int events /. sh_secs in
  let ratio = seq_secs /. sh_secs in
  Printf.printf "  [shard] shards=%d, wall %.2f s, %.0f events/sec\n%!" shards sh_secs sh_eps;
  Printf.printf "  sharded vs sequential %.2fx%s\n%!" ratio
    (if cores = 1 then " (single-core container: synchronization overhead only)" else "");
  let speedup_json =
    if cores = 1 then
      Printf.sprintf
        {|"speedup": null,
    "note": "not a parallelism measurement: single-core container (raw ratio %.2f)"|}
        ratio
    else Printf.sprintf {|"speedup": %.2f|} ratio
  in
  (* burst batching: cross-shard messages vs the ring slots (cursor
     publications) that carried them *)
  let sync_json =
    match !Exp_common.last_pdes_stats with
    | None -> ""
    | Some st ->
      let per_burst = float_of_int st.Exp_common.ps_messages /. float_of_int (max 1 st.Exp_common.ps_bursts) in
      Printf.printf "  cross-shard traffic   %d messages in %d bursts (%.1f msgs/slot), %d windows, %d stalls\n%!"
        st.Exp_common.ps_messages st.Exp_common.ps_bursts per_burst st.Exp_common.ps_windows
        st.Exp_common.ps_stalls;
      Printf.sprintf
        {|"messages": %d,
    "bursts": %d,
    "messages_per_burst": %.1f,
    "windows": %d,
    "stalls": %d,
    |}
        st.Exp_common.ps_messages st.Exp_common.ps_bursts per_burst st.Exp_common.ps_windows
        st.Exp_common.ps_stalls
  in
  Printf.sprintf
    {|"pdes": {
    "workload": "run_std quick bfc seed=1, sequential vs %d-shard PDES",
    "cores": %d,
    "shards": %d,
    "identical_output": true,
    "ratio": %.2f,
    "seq": { "events": %d, "seconds": %.3f, "events_per_sec": %.0f },
    "sharded": { "seconds": %.3f, "events_per_sec": %.0f },
    %s%s
  }|}
    shards cores shards ratio events seq_secs seq_eps sh_secs sh_eps sync_json speedup_json

(* ------------------------------------------------------------------ *)
(* Stress benchmark: the same quick reference workload, clean vs with the
   fault injector, a flap-storm scenario and the stress detectors all
   attached — what the adversity machinery costs in engine throughput. *)

let run_stress () =
  Printf.printf "\n################ stress benchmark: fault load vs clean\n%!";
  let module Injector = Bfc_fault.Injector in
  let module Detect = Bfc_stress.Detect in
  let module Scenario = Bfc_stress.Scenario in
  let leg name setup =
    let r, secs = time_run (fun () -> Exp_common.run_std setup) in
    let events = Runner.events_executed r.Exp_common.env in
    let eps = float_of_int events /. secs in
    Printf.printf "  [%-5s] events %d, wall %.2f s, %.0f events/sec\n%!" name events secs eps;
    (events, secs, eps)
  in
  let clean_e, clean_s, clean_eps = leg "clean" (quick_setup 1) in
  let fault_e, fault_s, fault_eps =
    leg "fault"
      {
        (quick_setup 1) with
        Exp_common.sp_obs =
          (fun env ->
            let inj = Injector.attach env in
            ignore (Detect.attach env);
            ignore (Scenario.apply (Scenario.flap_storm ()) ~env ~inj ()));
      }
  in
  let overhead_pct = 100.0 *. ((clean_eps /. fault_eps) -. 1.0) in
  Printf.printf "  fault-load overhead   %+.1f%% events/sec\n%!" overhead_pct;
  Printf.sprintf
    {|"stress": {
    "workload": "run_std quick bfc seed=1 vs same + flap-storm + injector + detectors",
    "clean": { "events": %d, "seconds": %.3f, "events_per_sec": %.0f },
    "fault": { "events": %d, "seconds": %.3f, "events_per_sec": %.0f },
    "overhead_pct": %.1f
  }|}
    clean_e clean_s clean_eps fault_e fault_s fault_eps overhead_pct

(* ------------------------------------------------------------------ *)
(* Streaming-observability benchmark (two questions, two sub-blocks):

   - accuracy: one reference run with streaming on retains BOTH the exact
     per-flow samples and the sketches, so the sketch-backed FCT table can
     be compared percentile-by-percentile against the exact table from
     the very same flows. CI gates max_rel_err against the sketches'
     configured alpha.

   - mem_scale: the run_stream driver at N/4 and N flows with streaming
     observability (sketches + reclaimed transport state), plus an exact
     leg (every flow record retained) at a smaller count as the memory
     baseline. The gate is sublinearity: quadrupling the flow count must
     not quadruple peak heap. flows_per_gb = completed / peak-heap-GB. *)

let run_streaming () =
  Printf.printf "\n################ streaming benchmark: sketch accuracy + memory scaling\n%!";
  let module Metrics = Bfc_sim.Metrics in
  (* 1. accuracy: exact vs sketch on the same quick reference run *)
  Exp_common.set_streaming true;
  let r = Exp_common.run_std (quick_setup 1) in
  Exp_common.set_streaming false;
  let sk = match r.Exp_common.sketches with Some sk -> sk | None -> assert false in
  let exact_rows =
    Metrics.fct_table r.Exp_common.env ~since:r.Exp_common.measure_from r.Exp_common.flows
  in
  let sketch_rows = Metrics.fct_table_of_sketches sk in
  let exact_all = Metrics.fct_overall r.Exp_common.env r.Exp_common.flows in
  let sketch_all = Metrics.fct_overall_of_sketches sk in
  let max_err = ref 0.0 and n_cmp = ref 0 in
  let cmp exact approx =
    if exact > 0.0 && Float.is_finite exact then begin
      let e = Float.abs (approx -. exact) /. exact in
      incr n_cmp;
      if e > !max_err then max_err := e
    end
  in
  List.iter2
    (fun (e : Metrics.fct_stats) (s : Metrics.fct_stats) ->
      if e.Metrics.count <> s.Metrics.count then
        failwith
          (Printf.sprintf "streaming bench: bucket %s count mismatch (exact %d, sketch %d)"
             e.Metrics.bucket e.Metrics.count s.Metrics.count);
      cmp e.Metrics.p50 s.Metrics.p50;
      cmp e.Metrics.p95 s.Metrics.p95;
      cmp e.Metrics.p99 s.Metrics.p99)
    (exact_all :: exact_rows) (sketch_all :: sketch_rows);
  let alpha = Metrics.sketches_alpha sk in
  Printf.printf "  accuracy: %d percentiles compared, max rel err %.4f (alpha %.3f)\n%!" !n_cmp
    !max_err alpha;
  Printf.printf "  overall p99: exact %.3f, sketch %.3f\n%!" exact_all.Metrics.p99
    sketch_all.Metrics.p99;
  (* 2. memory scaling: run_stream at N/4 and N, exact baseline leg *)
  let n_flows =
    match Option.bind (Sys.getenv_opt "BFC_STREAM_FLOWS") int_of_string_opt with
    | Some n when n >= 4 -> n
    | _ -> 2_000_000
  in
  let stream_leg name ~streaming ~flows =
    Gc.compact ();
    let s = Exp_common.run_stream ~streaming ~flows () in
    let peak_gb = float_of_int s.Exp_common.sr_peak_heap_words *. 8.0 /. 1e9 in
    let fpg = float_of_int s.Exp_common.sr_completed /. peak_gb in
    let eps = float_of_int s.Exp_common.sr_events /. s.Exp_common.sr_elapsed_s in
    Printf.printf
      "  [%-9s] flows %d/%d, events %d, wall %.2f s, %.0f events/sec, peak heap %.1f MB, %.0f \
       flows/GB\n\
       %!"
      name s.Exp_common.sr_completed s.Exp_common.sr_injected s.Exp_common.sr_events
      s.Exp_common.sr_elapsed_s eps (peak_gb *. 1e3) fpg;
    let json =
      Printf.sprintf
        {|{ "flows": %d, "events": %d, "seconds": %.3f, "events_per_sec": %.0f, "peak_heap_words": %d, "flows_per_gb": %.0f }|}
        s.Exp_common.sr_completed s.Exp_common.sr_events s.Exp_common.sr_elapsed_s eps
        s.Exp_common.sr_peak_heap_words fpg
    in
    (json, s.Exp_common.sr_peak_heap_words, fpg)
  in
  let exact_json, _, exact_fpg =
    stream_leg "exact" ~streaming:false ~flows:(min n_flows 200_000)
  in
  let quarter_json, quarter_peak, _ = stream_leg "stream/4" ~streaming:true ~flows:(n_flows / 4) in
  let full_json, full_peak, full_fpg = stream_leg "streaming" ~streaming:true ~flows:n_flows in
  let growth = float_of_int full_peak /. float_of_int (max 1 quarter_peak) in
  let sublinear = growth < 4.0 in
  let gain = full_fpg /. exact_fpg in
  Printf.printf "  heap growth 4x flows  %.2fx (%s), flows/GB gain vs exact %.1fx\n%!" growth
    (if sublinear then "sublinear" else "NOT sublinear") gain;
  Printf.sprintf
    {|"streaming": {
    "alpha": %.4f,
    "accuracy": {
      "workload": "run_std quick bfc seed=1, sketch vs exact on the same flows",
      "percentiles_compared": %d,
      "max_rel_err": %.5f,
      "overall_p99_exact": %.4f,
      "overall_p99_sketch": %.4f
    },
    "mem_scale": {
      "workload": "run_stream quick clos, single-MTU flows, sliding-window arrivals",
      "exact": %s,
      "streaming_quarter": %s,
      "streaming": %s,
      "heap_growth_ratio_4x_flows": %.3f,
      "sublinear": %b,
      "flows_per_gb_gain": %.2f
    }
  }|}
    alpha !n_cmp !max_err exact_all.Metrics.p99 sketch_all.Metrics.p99 exact_json quarter_json
    full_json growth sublinear gain

(* ------------------------------------------------------------------ *)
(* Scheduler microbenchmark: raw timing-wheel throughput, isolated from
   the rest of the engine. Two steady states per pending-set size:
     - push/pop: fill with n deadlines, then drain, repeatedly;
     - rearm: hold n pending and do pop-one/push-one at a short random
       horizon past the popped deadline — the engine's actual hot loop
       (port wakeups, in-flight deliveries). *)

let sched_sizes = [ 1_000; 32_000; 256_000 ]

(* deterministic xorshift; spread/horizon land mostly in wheel level 0/1,
   matching the engine's ns-scale event horizons *)
let mk_rand () =
  let s = ref 0x2545F491 in
  fun () ->
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x;
    x land 0x3FFF

(* The wheel stores the deadline as the payload so pop returns the
   popped time. *)
module W = Bfc_util.Wheel

let sched_leg n =
  (* push/pop: fill-and-drain rounds, >= 2M single ops total *)
  let rounds = max 1 (2_000_000 / (2 * n)) in
  let pp_mops =
    let q = W.create () in
    let rand = mk_rand () in
    let sink = ref 0 in
    let _, secs =
      time_run (fun () ->
          for _ = 1 to rounds do
            for _ = 1 to n do
              let t = rand () in
              W.push q ~rank:0 ~priority:t t
            done;
            for _ = 1 to n do
              sink := !sink + W.pop_min_exn q
            done;
            W.clear q
          done;
          ignore (Sys.opaque_identity !sink))
    in
    float_of_int (rounds * 2 * n) /. secs /. 1e6
  in
  (* rearm: hold n pending, pop-one/push-one 2M times *)
  let iters = 2_000_000 in
  let rearm_mops =
    let q = W.create () in
    let rand = mk_rand () in
    for _ = 1 to n do
      let t = rand () in
      W.push q ~rank:0 ~priority:t t
    done;
    let sink = ref 0 in
    let _, secs =
      time_run (fun () ->
          for _ = 1 to iters do
            let t = W.pop_min_exn q in
            sink := !sink + t;
            W.push q ~rank:0 ~priority:(t + 1 + rand ()) t
          done;
          ignore (Sys.opaque_identity !sink))
    in
    float_of_int (2 * iters) /. secs /. 1e6
  in
  (pp_mops, rearm_mops)

let run_sched () =
  print_endline "\n################ scheduler microbenchmark: timing wheel";
  let legs =
    List.map
      (fun n ->
        let pp, rearm = sched_leg n in
        Printf.printf "  pending %7d   push/pop %6.1f Mops   rearm %6.1f Mops\n%!" n pp rearm;
        Printf.sprintf {|{ "pending": %d, "push_pop_mops": %.1f, "rearm_mops": %.1f }|} n pp
          rearm)
      sched_sizes
  in
  Printf.sprintf {|"sched": [
    %s
  ]|} (String.concat ",\n    " legs)

let write_bench ~out blocks =
  let oc = open_out out in
  Printf.fprintf oc {|{
  "cores": %d,
  %s
}
|} (Pool.recommended_jobs ())
    (String.concat ",\n  " blocks);
  close_out oc;
  Printf.printf "  wrote %s\n%!" out

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let profile = ref Exp_common.Quick in
  let targets = ref [] in
  let micro_only = ref false in
  let macro = ref false in
  let sched = ref false in
  let stress = ref false in
  let pdes = ref false in
  let streaming = ref false in
  let csv_dir = ref None in
  let jobs = ref (Pool.recommended_jobs ()) in
  let bench_out = ref "BENCH_engine.json" in
  let rec parse = function
    | [] -> ()
    | "--profile" :: p :: rest ->
      profile := Exp_common.profile_of_string p;
      parse rest
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      parse rest
    | "--jobs" :: n :: rest ->
      jobs := int_of_string n;
      parse rest
    | "--micro" :: rest ->
      micro_only := true;
      parse rest
    | "--macro" :: rest ->
      macro := true;
      parse rest
    | "--sched" :: rest ->
      sched := true;
      parse rest
    | "--stress" :: rest ->
      stress := true;
      parse rest
    | "--pdes" :: rest ->
      pdes := true;
      parse rest
    | "--streaming" :: rest ->
      streaming := true;
      parse rest
    | "--engine-profile" :: _ ->
      (* one quick run, engine self-profile JSON on stdout (--profile is
         taken by the scale selector, hence the distinct flag name) *)
      let r = Exp_common.run_std (quick_setup 1) in
      print_endline (Bfc_sim.Telemetry.engine_profile_json r.Exp_common.env);
      exit 0
    | "--bench-out" :: path :: rest ->
      bench_out := path;
      parse rest
    | "--list" :: _ ->
      List.iter print_endline (Experiments.names ());
      exit 0
    | name :: rest ->
      targets := name :: !targets;
      parse rest
  in
  parse args;
  if !macro || !sched || !stress || !pdes || !streaming then begin
    let blocks =
      (if !macro then [ run_macro ~jobs:!jobs () ] else [])
      @ (if !sched then [ run_sched () ] else [])
      @ (if !stress then [ run_stress () ] else [])
      @ (if !pdes then [ run_pdes () ] else [])
      @ if !streaming then [ run_streaming () ] else []
    in
    write_bench ~out:!bench_out blocks
  end
  else if !micro_only then run_micro ()
  else begin
    let chosen =
      match List.rev !targets with
      | [] -> Experiments.all
      | names ->
        List.map
          (fun n ->
            match Experiments.find n with
            | Some t -> t
            | None ->
              Printf.eprintf "unknown target %s (use --list)\n" n;
              exit 1)
          names
    in
    let t0 = Unix.gettimeofday () in
    List.iter (Experiments.run_parallel ?csv_dir:!csv_dir ~jobs:!jobs !profile) chosen;
    if List.length chosen > 1 then run_micro ();
    Printf.printf "\nall done in %.1fs (jobs=%d)\n" (Unix.gettimeofday () -. t0) !jobs
  end
