(* Ablations of BFC's design choices beyond what the paper sweeps:
   the sticky-reassignment threshold (§3.3.2 picks 2 HRTT), the pause
   threshold scale factor (Th = factor x HRTT.mu/N_active), the cost of
   the periodic pause-bitmap refresh, and cross-scheme fairness (the
   paper's "fairness dealt with trivially by scheduling" claim made
   measurable via Jain's index). *)

module Time = Bfc_engine.Time
module Dist = Bfc_workload.Dist
open Exp_common

let summarize name r =
  [
    name;
    cell (Metrics.short_p99 r.env ~since:r.measure_from r.flows);
    cell (Metrics.fct_overall r.env r.flows).Metrics.p99;
    cell (buffer_p99 r /. 1e6);
    Printf.sprintf "%d/%d" (Runner.completed r.env) (Runner.injected r.env);
  ]

let header = [ "config"; "short p99"; "overall p99"; "p99 buffer(MB)"; "completed" ]

(* --------------------------- Sticky threshold ---------------------- *)

let sticky profile =
  let rows =
    Pool.run
      (List.map
         (fun mult () ->
           let scheme =
             Scheme.Bfc { Scheme.bfc_default with Scheme.sticky_hrtt_mult = mult }
           in
           let s =
             {
               (std profile scheme) with
               sp_dist = Dist.fb_hadoop;
               sp_incast = Some default_incast;
             }
           in
           summarize (Printf.sprintf "sticky = %g HRTT" mult) (run_std s))
         (match profile with Smoke -> [ 2.0 ] | _ -> [ 0.0; 1.0; 2.0; 8.0; 64.0 ]))
  in
  [
    {
      title =
        "Ablation: sticky queue-reassignment threshold (paper: 2 HRTT) — FB + incast";
      header;
      rows;
    };
  ]

(* --------------------------- Pause threshold ------------------------ *)

let thfactor profile =
  let rows =
    Pool.run
      (List.map
         (fun factor () ->
           let scheme =
             Scheme.Bfc { Scheme.bfc_default with Scheme.th_factor = factor }
           in
           let s = { (std profile scheme) with sp_dist = Dist.fb_hadoop } in
           let r = run_std s in
           let pauses =
             Array.fold_left
               (fun a dp ->
                 a + (Bfc_core.Dataplane.stats dp).Bfc_core.Dataplane.pauses_sent)
               0 (Runner.dataplanes r.env)
           in
           summarize (Printf.sprintf "Th = %gx 1-hop BDP" factor) r
           @ [ string_of_int pauses ])
         (match profile with Smoke -> [ 1.0 ] | _ -> [ 0.25; 0.5; 1.0; 2.0; 4.0 ]))
  in
  [
    {
      title = "Ablation: pause threshold scale (paper: 1x) — buffering vs pause volume";
      header = header @ [ "pauses sent" ];
      rows;
    };
  ]

(* ----------------------------- Bitmap cost -------------------------- *)

let bitmap_cost profile =
  let rows =
    Pool.run
      (List.map
         (fun period ->
           let name =
             match period with
             | None -> "no refresh"
             | Some p -> Printf.sprintf "refresh every %gus" (Time.to_us p)
           in
           (fun () ->
             let scheme =
               Scheme.Bfc { Scheme.bfc_default with Scheme.bitmap_period = period }
             in
             let s =
               {
                 (std profile scheme) with
                 sp_dist = Dist.fb_hadoop;
                 sp_incast = Some default_incast;
               }
             in
             summarize name (run_std s)))
         (match profile with
         | Smoke -> [ None ]
         | _ -> [ None; Some (Time.us 100.0); Some (Time.us 20.0); Some (Time.us 5.0) ]))
  in
  [
    {
      title = "Ablation: periodic pause-bitmap refresh cost (reliability vs overhead)";
      header;
      rows;
    };
  ]

(* ------------------------------ Fairness ---------------------------- *)

let fairness profile =
  let schemes =
    match profile with
    | Smoke -> [ Scheme.bfc; Scheme.dctcp ]
    | _ -> [ Scheme.bfc; Scheme.Ideal_fq; Scheme.hpcc; Scheme.dcqcn; Scheme.dctcp ]
  in
  let rows =
    Pool.run
      (List.map
         (fun scheme () ->
           let s =
             { (std profile scheme) with sp_dist = Dist.fb_hadoop; sp_load = 0.7 }
           in
           let r = run_std s in
           [
             Scheme.name scheme;
             cell
               (Metrics.jain_fairness r.env ~min_size:300_000 ~max_size:1_000_000 r.flows);
             cell
               (Metrics.long_avg r.env ~threshold:1_000_000 ~since:r.measure_from r.flows);
           ])
         schemes)
  in
  [
    {
      title =
        "Ablation: Jain fairness over 0.3-1MB flow throughputs (FB 70%) — \"fairness by scheduling\"";
      header = [ "scheme"; "Jain index"; "long avg slowdown" ];
      rows;
    };
  ]

(* ------------------- Sec 2.2: existing solutions ------------------- *)

(* PFC alone (coarse hop-by-hop pausing, FIFO queues) against the other
   deployed end-to-end schemes of Sec 2 (Timely/Swift-class delay control,
   DCTCP/DCQCN) and BFC, under incast: PFC's pause spreads congestion to
   victims (HoL blocking), which is exactly the paper's case for per-flow
   backpressure. *)
let strawman profile =
  let schemes =
    match profile with
    | Smoke -> [ Scheme.pfc_only; Scheme.bfc ]
    | _ ->
      [ Scheme.pfc_only; Scheme.swift; Scheme.timely; Scheme.dctcp; Scheme.dcqcn; Scheme.bfc ]
  in
  let rows =
    Pool.run
      (List.map
         (fun scheme () ->
           let s =
             {
               (std profile scheme) with
               sp_dist = Dist.google;
               sp_incast = Some default_incast;
             }
           in
           let r = run_std s in
           [
             Scheme.name scheme;
             cell (Metrics.short_p99 r.env ~since:r.measure_from r.flows);
             cell (Metrics.fct_overall r.env r.flows).Metrics.p99;
             cell (Runner.pfc_pause_fraction r.env *. 100.0);
             cell (buffer_p99 r /. 1e6);
             string_of_int (Runner.total_drops r.env);
           ])
         schemes)
  in
  [
    {
      title =
        "Sec 2.2: PFC strawman and deployed e2e schemes vs BFC (Google, 55% + 5% incast)";
      header = [ "scheme"; "short p99"; "overall p99"; "pfc pause %"; "p99 buffer(MB)"; "drops" ];
      rows;
    };
  ]
