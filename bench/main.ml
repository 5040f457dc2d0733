(* The PDES benchmark: the quick reference workload (run_std quick bfc
   seed=1), sequential vs the 2-shard conservative-window run. The sharded
   leg must produce the identical output (counters and FCT rows are
   compared, and the run fails if they differ), so the only question is
   wall clock. Events/sec for both legs use the sequential event count:
   same delivered workload, throughput on a wall-clock basis. On a
   single-core host the ratio measures synchronization overhead, not
   parallelism, and the speedup is recorded as null with the raw ratio
   noted.

   Everything else is measured elsewhere: figures and tables by
   `bfc_sim run`, host cost end to end and per layer by perfbench/run.py,
   streaming memory by `bfc_sim stream`.

   Usage:
     dune exec bench/main.exe   -- progress on stderr, one JSON object
                                   {"pdes": {...}} on stdout; takes no options *)

module Exp_common = Bfc_sim.Exp_common
module Runner = Bfc_sim.Runner
module Clock = Bfc_util.Clock

let time_run f =
  let t0 = Clock.now_s () in
  let r = f () in
  (r, Clock.elapsed_s ~since:t0)

let run_pdes () =
  let cores = Domain.recommended_domain_count () in
  let shards = 2 in
  let setup =
    { (Exp_common.std Exp_common.Quick Bfc_sim.Scheme.bfc) with Exp_common.sp_seed = 1 }
  in
  let rseq, seq_secs = time_run (fun () -> Exp_common.run_std_seq setup) in
  let events = Runner.events_executed rseq.Exp_common.env in
  let seq_eps = float_of_int events /. seq_secs in
  Printf.eprintf "[seq  ] events %d, wall %.2f s, %.0f events/sec\n%!" events seq_secs seq_eps;
  let rsh, sh_secs = time_run (fun () -> Exp_common.run_std_sharded setup ~shards) in
  if
    Runner.injected rseq.Exp_common.env <> Runner.injected rsh.Exp_common.env
    || Runner.completed rseq.Exp_common.env <> Runner.completed rsh.Exp_common.env
    || Exp_common.fct_rows rseq <> Exp_common.fct_rows rsh
  then failwith "pdes bench diverged: sharded output differs from sequential";
  let sh_eps = float_of_int events /. sh_secs in
  let ratio = seq_secs /. sh_secs in
  Printf.eprintf "[shard] shards=%d, wall %.2f s, %.0f events/sec\n%!" shards sh_secs sh_eps;
  Printf.eprintf "sharded vs sequential %.2fx%s\n%!" ratio
    (if cores = 1 then " (single-core host: synchronization overhead only)" else "");
  let speedup_json =
    if cores = 1 then
      Printf.sprintf
        {|"speedup": null,
    "note": "not a parallelism measurement: single-core host (raw ratio %.2f)"|}
        ratio
    else Printf.sprintf {|"speedup": %.2f|} ratio
  in
  (* burst batching: cross-shard messages vs the ring slots (cursor
     publications) that carried them *)
  let sync_json =
    match !Exp_common.last_pdes_stats with
    | None -> ""
    | Some st ->
      let per_burst =
        float_of_int st.Exp_common.ps_messages /. float_of_int (max 1 st.Exp_common.ps_bursts)
      in
      Printf.eprintf
        "cross-shard traffic %d messages in %d bursts (%.1f msgs/slot), %d windows, %d stalls\n%!"
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
  Printf.printf
    {|{
  "pdes": {
    "workload": "run_std quick bfc seed=1, sequential vs %d-shard PDES",
    "cores": %d,
    "shards": %d,
    "identical_output": true,
    "ratio": %.2f,
    "seq": { "events": %d, "seconds": %.3f, "events_per_sec": %.0f },
    "sharded": { "seconds": %.3f, "events_per_sec": %.0f },
    %s%s
  }
}
|}
    shards cores shards ratio events seq_secs seq_eps sh_secs sh_eps sync_json speedup_json

let () = run_pdes ()
