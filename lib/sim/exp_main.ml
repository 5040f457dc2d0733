(* Principal simulation results (§6.2.2-§6.4): Fig. 9-14 and the incast
   flow FCTs of App. A.12 (Fig. 29). *)

module Time = Bfc_engine.Time
module Dist = Bfc_workload.Dist
module Sample = Bfc_util.Stats.Sample
open Exp_common

let main_schemes =
  [
    Scheme.bfc;
    Scheme.hpcc;
    Scheme.hpcc_pfc;
    Scheme.dcqcn;
    Scheme.dctcp;
    Scheme.expresspass;
    Scheme.Ideal_fq;
  ]

let quick_schemes profile =
  match profile with
  | Smoke -> [ Scheme.bfc; Scheme.dctcp ]
  | Quick | Paper -> main_schemes

(* One Fig-9/10/11-style panel: per-scheme FCT buckets + buffer + pfc.
   Each scheme is an independent sweep point returning its slice of every
   table; slices are concatenated in scheme order afterwards. *)
let panel ~title ~profile ~dist ~load ~incast ~track_active =
  let run_one scheme () =
    let s =
      {
        (std profile scheme) with
        sp_dist = dist;
        sp_load = load;
        sp_incast = incast;
        sp_track_active = track_active;
      }
    in
    let r = run_std s in
    let name = Scheme.name scheme in
    let fct = List.map (fun row -> name :: row) (fct_rows r) in
    (* incast flows separately (App A.12 / Fig 29 uses the Fig 9 setup) *)
    let incast_rows =
      match incast with
      | None -> []
      | Some _ ->
        let stats = Metrics.fct_table r.env ~incast:true ~since:r.measure_from r.flows in
        List.filter_map
          (fun (st : Metrics.fct_stats) ->
            if st.Metrics.count = 0 then None
            else
              Some
                [
                  name ^ " [incast]";
                  st.Metrics.bucket;
                  string_of_int st.Metrics.count;
                  cell st.Metrics.avg;
                  cell st.Metrics.p50;
                  cell st.Metrics.p95;
                  cell st.Metrics.p99;
                ])
          stats
    in
    let summary =
      [
        name;
        cell (buffer_p99 r /. 1e6);
        string_of_int (Runner.total_drops r.env);
        cell (Runner.pfc_pause_fraction r.env *. 100.0);
        Printf.sprintf "%d/%d" (Runner.completed r.env) (Runner.injected r.env);
      ]
    in
    let active =
      match r.active with
      | Some a when not (Sample.is_empty a) ->
        Some
          [
            name;
            cell (Sample.mean a);
            cell (Sample.percentile a 90.0);
            cell (Sample.percentile a 99.0);
            cell (Sample.max a);
          ]
      | _ -> None
    in
    (fct @ incast_rows, summary, active)
  in
  let results =
    Pool.run
      (List.map run_one (quick_schemes profile))
  in
  let fct_rows_all = List.concat_map (fun (f, _, _) -> f) results in
  let summary = List.map (fun (_, s, _) -> s) results in
  let active_tbl = List.filter_map (fun (_, _, a) -> a) results in
  let tables =
    [
      {
        title;
        header = [ "scheme"; "bucket"; "n"; "avg"; "p50"; "p95"; "p99" ];
        rows = fct_rows_all;
      };
      {
        title = title ^ " — buffer occupancy & health";
        header = [ "scheme"; "p99 buffer(MB)"; "drops"; "pfc pause(%)"; "completed" ];
        rows = summary;
      };
    ]
  in
  if active_tbl = [] then tables
  else
    tables
    @ [
        {
          title = title ^ " — active flows per port";
          header = [ "scheme"; "mean"; "p90"; "p99"; "max" ];
          rows = active_tbl;
        };
      ]

let fig9 profile =
  panel ~title:"Fig 9: Google, 55% load + 5% 100:1 incast — FCT slowdown" ~profile
    ~dist:Dist.google ~load:0.6 ~incast:(Some default_incast) ~track_active:false

let fig10 profile =
  panel ~title:"Fig 10: Google, 60% load, no incast — FCT slowdown" ~profile ~dist:Dist.google
    ~load:0.6 ~incast:None ~track_active:true

let fig11 profile =
  panel
    ~title:"Fig 11a: Facebook, 55% + 5% 100:1 incast — FCT slowdown" ~profile
    ~dist:Dist.fb_hadoop ~load:0.6 ~incast:(Some default_incast) ~track_active:false
  @ panel ~title:"Fig 11b: Facebook, 60% load, no incast — FCT slowdown" ~profile
      ~dist:Dist.fb_hadoop ~load:0.6 ~incast:None ~track_active:false

(* ------------------------------------------------------------------ *)
(* Fig. 12: load sweep.                                                 *)

let fig12 profile =
  let loads = match profile with Smoke -> [ 0.6 ] | _ -> [ 0.5; 0.6; 0.7; 0.8; 0.9; 0.95 ] in
  let schemes =
    match profile with
    | Smoke -> [ Scheme.bfc ]
    | _ -> [ Scheme.bfc; Scheme.bfc_q 128; Scheme.hpcc; Scheme.hpcc_pfc; Scheme.dctcp ]
  in
  let combos =
    List.concat_map
      (fun scheme ->
        List.filter_map
          (fun load ->
            (* HPCC becomes unstable above 70% load (paper) *)
            let skip = match scheme with Scheme.Hpcc _ -> load > 0.71 | _ -> false in
            if skip then None else Some (scheme, load))
          loads)
      schemes
  in
  let rows =
    Pool.run
      (List.map
         (fun (scheme, load) () ->
           (* queue exhaustion at high load takes ~1/(1-rho) to develop *)
           let mult = if load >= 0.9 then 3.0 else 1.0 in
           let s = { (std profile scheme) with sp_load = load; sp_dur_mult = mult } in
           let r = run_std s in
           [
             Scheme.name scheme;
             cell load;
             cell (Metrics.long_avg r.env ~since:r.measure_from r.flows);
             cell (Metrics.short_p99 r.env ~since:r.measure_from r.flows);
             Printf.sprintf "%d/%d" (Runner.completed r.env) (Runner.injected r.env);
           ])
         combos)
  in
  [
    {
      title = "Fig 12: FB, no incast — long-flow avg & short-flow p99 slowdown vs load";
      header = [ "scheme"; "load"; "long avg"; "short p99"; "completed" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 13: incast degree sweep.                                        *)

let fig13 profile =
  let degrees =
    match profile with
    | Smoke -> [ 20 ]
    | Quick -> [ 10; 50; 100; 400; 800 ]
    | Paper -> [ 10; 50; 100; 200; 500; 1000; 2000 ]
  in
  let schemes =
    match profile with
    | Smoke -> [ Scheme.bfc ]
    | _ -> [ Scheme.bfc; Scheme.bfc_q 128; Scheme.hpcc_pfc; Scheme.dctcp ]
  in
  let combos =
    List.concat_map (fun scheme -> List.map (fun d -> (scheme, d)) degrees) schemes
  in
  let rows =
    Pool.run
      (List.map
         (fun (scheme, degree) () ->
           let s =
             {
               (std profile scheme) with
               sp_incast = Some { default_incast with degree };
             }
           in
           let r = run_std s in
           [
             Scheme.name scheme;
             string_of_int degree;
             cell (Metrics.long_avg r.env ~since:r.measure_from r.flows);
             cell (Metrics.short_p99 r.env ~since:r.measure_from r.flows);
             string_of_int (Runner.total_drops r.env);
           ])
         combos)
  in
  [
    {
      title = "Fig 13: FB, 55% + 5% incast — slowdown vs incast degree";
      header = [ "scheme"; "degree"; "long avg"; "short p99"; "drops" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 14: decomposing BFC — HPCC-PFC with SFQ / DQA.                  *)

let fig14 profile =
  let schemes =
    [
      Scheme.hpcc_pfc;
      Scheme.Hpcc_pfc { sfq = true; dqa = false };
      Scheme.Hpcc_pfc { sfq = false; dqa = true };
      Scheme.bfc;
      Scheme.Ideal_fq;
    ]
  in
  let results =
    Pool.run
      (List.map
         (fun scheme () ->
           let s =
             {
               (std profile scheme) with
               sp_dist = Dist.fb_hadoop;
               sp_incast = Some default_incast;
             }
           in
           let r = run_std s in
           let name = Scheme.name scheme in
           ( List.map (fun row -> name :: row) (fct_rows r),
             [ name; cell (buffer_p99 r /. 1e6); string_of_int (Runner.total_drops r.env) ]
           ))
         schemes)
  in
  [
    {
      title = "Fig 14: HPCC-PFC variants vs BFC (FB + incast) — FCT slowdown";
      header = [ "scheme"; "bucket"; "n"; "avg"; "p50"; "p95"; "p99" ];
      rows = List.concat_map fst results;
    };
    {
      title = "Fig 14b: buffer occupancy";
      header = [ "scheme"; "p99 buffer(MB)"; "drops" ];
      rows = List.map snd results;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 29 (App. A.12): incast flow slowdowns, Fig. 9 setup.            *)

let fig29 profile =
  let schemes =
    match profile with
    | Smoke -> [ Scheme.bfc ]
    | _ -> [ Scheme.bfc; Scheme.hpcc; Scheme.hpcc_pfc; Scheme.dctcp; Scheme.Ideal_fq ]
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
           let sample = Sample.create () in
           List.iter
             (fun f ->
               if Bfc_net.Flow.complete f && f.Bfc_net.Flow.is_incast then
                 Sample.add sample (Runner.slowdown r.env f))
             r.flows;
           let v p = if Sample.is_empty sample then nan else Sample.percentile sample p in
           [
             Scheme.name scheme;
             string_of_int (Sample.count sample);
             cell (Sample.mean sample);
             cell (v 50.0);
             cell (v 95.0);
             cell (v 99.0);
           ])
         schemes)
  in
  [
    {
      title = "Fig 29 (App A.12): incast flow FCT slowdown (Google + 5% 100:1 incast)";
      header = [ "scheme"; "n"; "avg"; "p50"; "p95"; "p99" ];
      rows;
    };
  ]
