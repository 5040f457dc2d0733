type target = {
  t_name : string;
  t_what : string;
  t_run : Exp_common.profile -> Exp_common.table list;
}

let all =
  [
    { t_name = "fig1"; t_what = "hardware trends (buffer vs capacity)"; t_run = Exp_motivation.fig1 };
    { t_name = "fig2"; t_what = "byte-weighted flow size CDFs"; t_run = Exp_motivation.fig2 };
    { t_name = "fig3"; t_what = "fair-share rate variability"; t_run = Exp_motivation.fig3 };
    { t_name = "fig4"; t_what = "active flows vs load/speed/policy"; t_run = Exp_motivation.fig4 };
    { t_name = "table1"; t_what = "long flow on a shared 100G link"; t_run = Exp_motivation.table1 };
    { t_name = "mg1"; t_what = "M/G/1-PS active-flow law vs simulation"; t_run = Exp_motivation.mg1 };
    { t_name = "fig30"; t_what = "pause threshold analytic model (App C)"; t_run = Exp_motivation.fig30 };
    { t_name = "fig7"; t_what = "queue length vs pause threshold (testbed)"; t_run = Exp_testbed.fig7 };
    { t_name = "fig8"; t_what = "congestion spreading vs queue assignment"; t_run = Exp_testbed.fig8 };
    { t_name = "fig9"; t_what = "Google 55% + 5% incast"; t_run = Exp_main.fig9 };
    { t_name = "fig10"; t_what = "Google 60%, no incast"; t_run = Exp_main.fig10 };
    { t_name = "fig11"; t_what = "Facebook with and without incast"; t_run = Exp_main.fig11 };
    { t_name = "fig12"; t_what = "load sweep 50-95%"; t_run = Exp_main.fig12 };
    { t_name = "fig13"; t_what = "incast degree sweep"; t_run = Exp_main.fig13 };
    { t_name = "fig14"; t_what = "HPCC-PFC + SFQ/DQA decomposition"; t_run = Exp_main.fig14 };
    { t_name = "fig29"; t_what = "incast flow FCTs (App A.12)"; t_run = Exp_main.fig29 };
    { t_name = "fig15"; t_what = "mice vs elephants microbenchmark (App A.1)"; t_run = Exp_appendix.fig15 };
    { t_name = "fig16"; t_what = "BFC + end-to-end CC (App A.1)"; t_run = Exp_appendix.fig16 };
    { t_name = "fig17"; t_what = "Homa vs BFC-SRF (App A.2)"; t_run = Exp_homa.fig17 };
    { t_name = "table2"; t_what = "core queuing delay, Homa vs Homa-ECMP"; t_run = Exp_homa.table2 };
    { t_name = "fig18"; t_what = "single-receiver SRF accuracy"; t_run = Exp_homa.fig18 };
    { t_name = "fig19"; t_what = "SRF priority inversions under incast"; t_run = Exp_homa.fig19 };
    { t_name = "fig20"; t_what = "four traffic classes (App A.3)"; t_run = Exp_appendix.fig20 };
    { t_name = "fig21"; t_what = "baseline parameter sensitivity (App A.4)"; t_run = Exp_appendix.fig21 };
    { t_name = "fig22"; t_what = "spatial locality (App A.5)"; t_run = Exp_appendix.fig22 };
    { t_name = "fig23"; t_what = "slow start (App A.6)"; t_run = Exp_appendix.fig23 };
    { t_name = "fig24"; t_what = "incast labelling (App A.7)"; t_run = Exp_appendix.fig24 };
    { t_name = "fig25"; t_what = "incremental deployment (App A.8)"; t_run = Exp_appendix.fig25 };
    { t_name = "fig26"; t_what = "cross data center (App A.9)"; t_run = Exp_appendix.fig26 };
    { t_name = "fig27"; t_what = "dynamic vs stochastic assignment (App A.10)"; t_run = Exp_appendix.fig27 };
    { t_name = "fig28"; t_what = "flow-table size (App A.11)"; t_run = Exp_appendix.fig28 };
    { t_name = "deadlock"; t_what = "backpressure-graph analysis (App B)"; t_run = Exp_appendix.deadlock };
    { t_name = "deadlock_sim"; t_what = "live ring deadlock + prevention (App B)"; t_run = Exp_appendix.deadlock_sim };
    { t_name = "lossless"; t_what = "credit-based lossless BFC (Sec 5 extension)"; t_run = Exp_appendix.lossless };
    { t_name = "idempotent"; t_what = "pause/resume loss resilience (Sec 3.3)"; t_run = Exp_appendix.idempotent };
    { t_name = "sticky"; t_what = "ablation: sticky reassignment threshold"; t_run = Exp_ablation.sticky };
    { t_name = "thfactor"; t_what = "ablation: pause threshold scale"; t_run = Exp_ablation.thfactor };
    { t_name = "bitmap"; t_what = "ablation: pause-bitmap refresh cost"; t_run = Exp_ablation.bitmap_cost };
    { t_name = "fairness"; t_what = "ablation: Jain fairness across schemes"; t_run = Exp_ablation.fairness };
    { t_name = "strawman"; t_what = "PFC + deployed e2e schemes vs BFC (Sec 2.2)"; t_run = Exp_ablation.strawman };
  ]

let resolve names =
  let find n = List.find_opt (fun t -> t.t_name = n) all in
  match List.find_opt (fun n -> Option.is_none (find n)) names with
  | Some n -> Error (Printf.sprintf "unknown target %s (see `bfc_sim list`)" n)
  | None -> Ok (if names = [] then all else List.filter_map find names)

let run ?csv_dir ~jobs profile t =
  let prev = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs prev)
    (fun () ->
      let t0 = Bfc_util.Clock.now_s () in
      Printf.printf "\n################ %s — %s\n%!" t.t_name t.t_what;
      let tables = t.t_run profile in
      List.iter Exp_common.print_table tables;
      (match csv_dir with
      | Some dir ->
        Bfc_util.Fs.ensure_dir dir;
        List.iteri
          (fun i table ->
            let path = Filename.concat dir (Printf.sprintf "%s_%d.csv" t.t_name i) in
            Exp_common.write_csv table ~path)
          tables
      | None -> ());
      Printf.printf "[%s done in %.1fs]\n%!" t.t_name (Bfc_util.Clock.elapsed_s ~since:t0);
      tables)
