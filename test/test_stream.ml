(* Streaming observability: quantile sketch accuracy and encoding,
   binary flowlog roundtrips (chunk boundaries, truncation), and the
   sketch-backed FCT path against the exact one. *)

module Sketch = Bfc_obs.Sketch
module Flowlog = Bfc_obs.Flowlog
module Sample = Bfc_util.Stats.Sample
module Rng = Bfc_util.Rng
module Exp_common = Bfc_sim.Exp_common
module Metrics = Bfc_sim.Metrics

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Sketch unit tests *)

let test_sketch_basics () =
  let s = Sketch.create () in
  checkb "empty" true (Sketch.is_empty s);
  List.iter (Sketch.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  checki "count" 5 (Sketch.count s);
  check (Alcotest.float 1e-9) "min exact" 1.0 (Sketch.min s);
  check (Alcotest.float 1e-9) "max exact" 5.0 (Sketch.max s);
  (* extremes clamp to the exact observed range *)
  check (Alcotest.float 1e-9) "q0 = min" 1.0 (Sketch.quantile s 0.0);
  check (Alcotest.float 1e-9) "q1 = max" 5.0 (Sketch.quantile s 1.0);
  let a = Sketch.alpha s in
  checkb "alpha tightened" true (a <= 0.01);
  let p50 = Sketch.quantile s 0.5 in
  checkb "median near 3" true (Float.abs (p50 -. 3.0) /. 3.0 <= a)

let test_sketch_non_positive () =
  let s = Sketch.create () in
  List.iter (Sketch.add s) [ 0.0; -1.0; Float.nan; Float.infinity ];
  checki "all counted" 4 (Sketch.count s);
  checkb "min is nan (no bucketed values)" true (Float.is_nan (Sketch.min s));
  (* non-positive observations sit at the low end as zeros *)
  check (Alcotest.float 1e-9) "median of junk is 0" 0.0 (Sketch.quantile s 0.5);
  Sketch.add s 10.0;
  checkb "positive value lands above the junk" true (Sketch.quantile s 1.0 > 9.0)

let test_sketch_errors () =
  Alcotest.check_raises "alpha too big" (Invalid_argument "Sketch.create: alpha must be in (0, 0.5)")
    (fun () -> ignore (Sketch.create ~alpha:0.5 ()));
  let s = Sketch.create () in
  Alcotest.check_raises "empty quantile" (Invalid_argument "Sketch.quantile: empty sketch")
    (fun () -> ignore (Sketch.quantile s 0.5));
  Sketch.add s 1.0;
  Alcotest.check_raises "q out of range" (Invalid_argument "Sketch.quantile: q out of range")
    (fun () -> ignore (Sketch.quantile s 1.5))

let test_sketch_decode_rejects_garbage () =
  Alcotest.check_raises "bad magic" (Invalid_argument "Sketch.decode: bad magic") (fun () ->
      ignore (Sketch.decode "NOTASKETCH"));
  let s = Sketch.create () in
  List.iter (Sketch.add s) [ 1.0; 100.0 ];
  let e = Sketch.encode s in
  Alcotest.check_raises "truncated" (Invalid_argument "Sketch.decode: truncated") (fun () ->
      ignore (Sketch.decode (String.sub e 0 (String.length e - 3))))

(* ------------------------------------------------------------------ *)
(* Sketch properties: accuracy across distribution shapes, encoding *)

(* Positive samples from three shapes the FCT slowdowns exercise:
   constant, bimodal (short-flow mass plus a heavy cluster), heavy tail
   (u^-2 pareto-ish). *)
let gen_values dist seed n =
  let rng = Rng.create (seed + 1) in
  List.init n (fun _ ->
      match dist with
      | 0 -> 42.0
      | 1 ->
        if Rng.int rng 10 < 7 then 1.0 +. Rng.float rng
        else 500.0 +. (100.0 *. Rng.float rng)
      | _ ->
        let u = 1.0 -. Rng.float rng in
        1.0 /. (u *. u))

let dist_name = function 0 -> "constant" | 1 -> "bimodal" | _ -> "heavy-tail"

let prop_sketch_accuracy =
  QCheck.Test.make ~name:"sketch percentiles within alpha of exact, any distribution" ~count:60
    QCheck.(triple (int_range 0 2) (int_range 0 999) (int_range 1 3000))
    (fun (dist, seed, n) ->
      let values = gen_values dist seed n in
      let sk = Sketch.create () in
      let ex = Sample.create () in
      List.iter
        (fun v ->
          Sketch.add sk v;
          Sample.add ex v)
        values;
      let a = Sketch.alpha sk in
      List.for_all
        (fun p ->
          let exact = Sample.percentile ex p in
          let est = Sketch.percentile sk p in
          let ok = Float.abs (est -. exact) <= (a *. exact) +. 1e-9 in
          if not ok then
            QCheck.Test.fail_reportf "%s n=%d p%.0f: exact %.6f, sketch %.6f (alpha %.4f)"
              (dist_name dist) n p exact est a;
          ok)
        [ 0.0; 50.0; 90.0; 95.0; 99.0; 100.0 ])

let prop_sketch_encode_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip preserves state" ~count:60
    QCheck.(triple (int_range 0 2) (int_range 0 999) (int_range 0 500))
    (fun (dist, seed, n) ->
      let sk = Sketch.create () in
      List.iter (Sketch.add sk) (gen_values dist seed n);
      let d = Sketch.decode (Sketch.encode sk) in
      checki "count" (Sketch.count sk) (Sketch.count d);
      String.equal (Sketch.encode sk) (Sketch.encode d)
      && (n = 0 || Float.equal (Sketch.quantile sk 0.5) (Sketch.quantile d 0.5)))

(* ------------------------------------------------------------------ *)
(* Flowlog: roundtrips at and around chunk boundaries, truncation *)

let mk_record i =
  {
    Flowlog.id = i;
    src = i * 3 mod 97;
    dst = (i * 7) + (1 mod 89);
    size = 1000 + (i mod 5000);
    incast = i mod 11 = 0;
    prio_class = i mod 3;
    arrival = float_of_int i *. 1e-6;
    fct = (float_of_int (i mod 50) +. 1.0) *. 1e-6;
    ideal = 1e-6;
  }

let write_log path ~chunk n =
  let oc = open_out_bin path in
  let w = Flowlog.Writer.create ~chunk oc in
  for i = 0 to n - 1 do
    Flowlog.Writer.append w (mk_record i)
  done;
  Flowlog.Writer.close w;
  close_out oc

let read_all path =
  let acc = ref [] in
  let truncated = Flowlog.iter_file path ~f:(fun r -> acc := r :: !acc) in
  (List.rev !acc, truncated)

let with_tmp f =
  let path = Filename.temp_file "bfc_flowlog" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_flowlog_boundaries () =
  (* counts straddling the chunk boundary, including 0 and exact multiples *)
  List.iter
    (fun n ->
      with_tmp (fun path ->
          write_log path ~chunk:64 n;
          let records, truncated = read_all path in
          checkb (Printf.sprintf "n=%d not truncated" n) false truncated;
          checki (Printf.sprintf "n=%d record count" n) n (List.length records);
          List.iteri
            (fun i r ->
              let e = mk_record i in
              if r <> e then Alcotest.failf "n=%d record %d mismatch" n i)
            records))
    [ 0; 1; 63; 64; 65; 128; 200 ]

let prop_flowlog_roundtrip =
  QCheck.Test.make ~name:"flowlog roundtrip for any count and chunk size" ~count:40
    QCheck.(pair (int_range 0 1500) (int_range 1 512))
    (fun (n, chunk) ->
      with_tmp (fun path ->
          write_log path ~chunk n;
          let records, truncated = read_all path in
          (not truncated) && List.length records = n
          && List.for_all2 (fun r i -> r = mk_record i) records (List.init n Fun.id)))

let test_flowlog_truncated () =
  with_tmp (fun path ->
      write_log path ~chunk:64 200;
      (* cut the file mid-way through the final chunk *)
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub full 0 (String.length full - 37)));
      let records, truncated = read_all path in
      checkb "truncated flag" true truncated;
      (* complete chunks (3 x 64 = 192) survive; the torn chunk is dropped *)
      checki "complete chunks preserved" 192 (List.length records);
      List.iteri
        (fun i r -> if r <> mk_record i then Alcotest.failf "record %d corrupted" i)
        records)

let test_flowlog_bad_header () =
  with_tmp (fun path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "NOTAFLOWLOG00000");
      Alcotest.check_raises "bad magic" (Invalid_argument "Flowlog: bad magic") (fun () ->
          ignore (read_all path)))

(* ------------------------------------------------------------------ *)
(* The sketch-backed FCT path on a real run: counts must equal the exact
   table's and percentiles must agree within alpha. *)

let smoke_setup () =
  { (Exp_common.std Exp_common.Smoke Bfc_sim.Scheme.bfc) with Exp_common.sp_seed = 3 }

(* the sketches' relative-error bound *)
let stream_alpha = 0.01

let streaming ?flowlog s =
  {
    s with
    Exp_common.sp_stream = Some { Exp_common.alpha = stream_alpha; flowlog; progress = false };
  }

let test_streaming_matches_exact () =
  let r = Exp_common.run_std (streaming (smoke_setup ())) in
  let sk = match r.Exp_common.sketches with Some sk -> sk | None -> Alcotest.fail "no sketches" in
  let exact =
    Metrics.fct_table r.Exp_common.env ~since:r.Exp_common.measure_from r.Exp_common.flows
  in
  let approx = Metrics.fct_table_of_sketches sk in
  let alpha = stream_alpha in
  List.iter2
    (fun (e : Metrics.fct_stats) (s : Metrics.fct_stats) ->
      checki (e.Metrics.bucket ^ " count") e.Metrics.count s.Metrics.count;
      if e.Metrics.count > 0 then
        List.iter2
          (fun (name, ev) sv ->
            if Float.abs (sv -. ev) > (alpha *. ev) +. 1e-9 then
              Alcotest.failf "%s %s: exact %.4f vs sketch %.4f" e.Metrics.bucket name ev sv)
          [ ("p50", e.Metrics.p50); ("p95", e.Metrics.p95); ("p99", e.Metrics.p99) ]
          [ s.Metrics.p50; s.Metrics.p95; s.Metrics.p99 ])
    exact approx;
  (* fct_rows reports from the sketches on a streaming run; it drops
     empty buckets *)
  let nonzero = List.length (List.filter (fun (e : Metrics.fct_stats) -> e.Metrics.count > 0) exact) in
  checki "fct_rows row count" nonzero (List.length (Exp_common.fct_rows r))

(* The streaming settings travel in the setup, so an exact run and a
   streaming run can share one domain pool and each still reports what
   it reports alone. *)
let test_exact_and_streaming_in_one_pool () =
  let setups = [ smoke_setup (); streaming (smoke_setup ()) ] in
  let rows s = Exp_common.fct_rows (Exp_common.run_std s) in
  let solo = List.map rows setups in
  let pooled = Bfc_sim.Pool.run ~jobs:2 (List.map (fun s () -> rows s) setups) in
  check Alcotest.(list (list (list string))) "pooled rows = solo rows" solo pooled;
  checkb "the two modes report differently" true (List.nth solo 0 <> List.nth solo 1)

let test_flowlog_of_streaming_run () =
  with_tmp (fun path ->
      let r = Exp_common.run_std (streaming ~flowlog:path (smoke_setup ())) in
      let records, truncated = read_all path in
      checkb "not truncated" false truncated;
      checki "one record per completion" (Bfc_sim.Runner.completed r.Exp_common.env)
        (List.length records))

(* A streaming run's flow records come from the sim's flow table, which
   takes each back at its flow's reclaim and hands it to a later arrival.
   A 2,000-flow run completes every flow, yet its completion observers
   see no more distinct records than the table ever had in use at once,
   and once the last reclaims have fired the table holds no live stream
   record. No packet outlives its flow's slot. *)
let test_stream_records_reused () =
  let n = 2_000 in
  let seen = ref [] and distinct = ref 0 in
  let obs env =
    Bfc_sim.Runner.iter_hosts env (fun h ->
        Bfc_transport.Host.add_on_complete h (fun f ->
            if not (List.memq f !seen) then begin
              seen := f :: !seen;
              incr distinct
            end))
  in
  let r =
    Exp_common.run_std
      { (streaming (smoke_setup ())) with
        Exp_common.sp_workload = Exp_common.Stream n; sp_load = 0.05; sp_obs = obs }
  in
  let env = r.Exp_common.env in
  let sim = Bfc_sim.Runner.sim env in
  let flows = Bfc_net.Port.flows sim in
  checki "all completed" n (Bfc_sim.Runner.completed env);
  let hwm = Bfc_net.Flow.Table.high_water flows in
  Printf.printf "stream of %d flows: %d distinct records, table high-water %d\n" n !distinct hwm;
  checkb "observers see at most the high-water mark of records" true (!distinct <= hwm);
  checkb "the high-water mark is far below the flow count" true (hwm * 4 < n);
  Bfc_sim.Runner.run env ~until:(Bfc_engine.Sim.now sim + (100 * Bfc_sim.Runner.base_rtt env));
  checki "idle but for the window ticker" 1 (Bfc_engine.Sim.pending_events sim);
  checki "no live stream record after the reclaims" 0 (Bfc_net.Flow.Table.live flows);
  checki "no stale packet" 0 (Bfc_sim.Runner.stale_packets env)

let test_run_stream_smoke () =
  let r = Exp_common.run_stream ~streaming:true ~flows:2000 () in
  checkb "streaming" true r.Exp_common.sr_streaming;
  checki "all injected" 2000 r.Exp_common.sr_injected;
  checki "all completed" 2000 r.Exp_common.sr_completed;
  checkb "sketches present" true (r.Exp_common.sr_sketches <> None);
  checki "overall count" 2000 r.Exp_common.sr_overall.Metrics.count;
  checkb "peak heap sampled" true (r.Exp_common.sr_peak_heap_words > 0);
  (* exact leg on the same workload agrees on the flow accounting *)
  let e = Exp_common.run_stream ~streaming:false ~flows:2000 () in
  checkb "exact leg" false e.Exp_common.sr_streaming;
  checki "exact completed" 2000 e.Exp_common.sr_completed;
  checki "exact overall count" 2000 e.Exp_common.sr_overall.Metrics.count

let suite =
  [
    Alcotest.test_case "sketch basics" `Quick test_sketch_basics;
    Alcotest.test_case "sketch non-positive handling" `Quick test_sketch_non_positive;
    Alcotest.test_case "sketch argument errors" `Quick test_sketch_errors;
    Alcotest.test_case "sketch decode rejects garbage" `Quick test_sketch_decode_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_sketch_accuracy;
    QCheck_alcotest.to_alcotest prop_sketch_encode_roundtrip;
    Alcotest.test_case "flowlog chunk boundaries" `Quick test_flowlog_boundaries;
    QCheck_alcotest.to_alcotest prop_flowlog_roundtrip;
    Alcotest.test_case "flowlog truncated file" `Quick test_flowlog_truncated;
    Alcotest.test_case "flowlog bad header" `Quick test_flowlog_bad_header;
    Alcotest.test_case "streaming FCT table matches exact" `Quick test_streaming_matches_exact;
    Alcotest.test_case "exact and streaming runs in one pool" `Quick
      test_exact_and_streaming_in_one_pool;
    Alcotest.test_case "streaming run flowlog holds every completion" `Quick
      test_flowlog_of_streaming_run;
    Alcotest.test_case "run_stream smoke" `Quick test_run_stream_smoke;
    Alcotest.test_case "stream records are reused" `Quick test_stream_records_reused;
  ]
