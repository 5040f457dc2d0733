(* Tests for workloads: distributions, arrival processes, traffic and
   incast generation. *)

module Time = Bfc_engine.Time
module Flow = Bfc_net.Flow
module Dist = Bfc_workload.Dist
module Arrivals = Bfc_workload.Arrivals
module Traffic = Bfc_workload.Traffic
module Rng = Bfc_util.Rng

let check = Alcotest.check

(* ------------------------------- Dist ------------------------------ *)

let test_dist_sample_bounds () =
  let rng = Rng.create 1 in
  List.iter
    (fun d ->
      for _ = 1 to 5_000 do
        let s = Dist.sample d rng in
        Alcotest.(check bool) (Dist.name d ^ " sample positive") true (s >= 1)
      done)
    [ Dist.google; Dist.fb_hadoop; Dist.websearch ]

let test_dist_sample_mean_matches () =
  let rng = Rng.create 2 in
  List.iter
    (fun d ->
      let n = 200_000 in
      let acc = ref 0.0 in
      for _ = 1 to n do
        acc := !acc +. float_of_int (Dist.sample d rng)
      done;
      let emp = !acc /. float_of_int n in
      let anal = Dist.mean d in
      let err = Float.abs (emp -. anal) /. anal in
      Alcotest.(check bool)
        (Printf.sprintf "%s mean %.0f ~ %.0f" (Dist.name d) emp anal)
        true (err < 0.08))
    [ Dist.google; Dist.fb_hadoop ]

let test_dist_cdf_monotone () =
  List.iter
    (fun d ->
      let prev = ref (-1.0) in
      List.iter
        (fun s ->
          let c = Dist.cdf d s in
          Alcotest.(check bool) "monotone" true (c >= !prev);
          Alcotest.(check bool) "in [0,1]" true (c >= 0.0 && c <= 1.0);
          prev := c)
        [ 10.0; 100.0; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 ])
    [ Dist.google; Dist.fb_hadoop; Dist.websearch ]

let test_dist_byte_cdf_anchors () =
  (* the Fig 2 anchors that drove the encoding *)
  let g = Dist.byte_cdf Dist.google 100_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "google ~half of bytes < 100KB (%.2f)" g)
    true
    (g > 0.35 && g < 0.6);
  let fb = Dist.byte_cdf Dist.fb_hadoop 1e6 in
  Alcotest.(check bool) "fb ~60% of bytes < 1MB" true (fb > 0.45 && fb < 0.75);
  let ws = Dist.byte_cdf Dist.websearch 1e6 in
  Alcotest.(check bool) "websearch is byte-heaviest" true (ws < fb && ws < g)

let test_dist_fixed () =
  let rng = Rng.create 3 in
  let d = Dist.fixed 777 in
  check Alcotest.int "always same" 777 (Dist.sample d rng);
  Alcotest.(check (float 1e-9)) "mean" 777.0 (Dist.mean d)

let test_dist_by_name () =
  check Alcotest.string "google" "google" (Dist.name (Dist.by_name "google"));
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Dist.by_name "nope");
       false
     with Invalid_argument _ -> true)

let test_dist_malformed () =
  Alcotest.(check bool) "non-monotone rejected" true
    (try
       ignore (Dist.of_points ~name:"bad" ~min_size:10 [ (100.0, 0.5); (50.0, 1.0) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "cdf must end at 1" true
    (try
       ignore (Dist.of_points ~name:"bad" ~min_size:10 [ (100.0, 0.5) ]);
       false
     with Invalid_argument _ -> true)

let prop_dist_sample_within_support =
  QCheck.Test.make ~name:"samples stay within the distribution support" ~count:100
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let s = Dist.sample Dist.google rng in
      s >= 1 && s <= 3_000_000)

(* ----------------------------- Arrivals ---------------------------- *)

let test_arrival_means () =
  let rng = Rng.create 4 in
  List.iter
    (fun (label, a) ->
      let n = 100_000 in
      let acc = ref 0.0 in
      for _ = 1 to n do
        acc := !acc +. Arrivals.gap a rng ~mean:50.0
      done;
      let emp = !acc /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%s mean ~50 (%.1f)" label emp)
        true
        (Float.abs (emp -. 50.0) /. 50.0 < 0.1))
    [ ("poisson", Arrivals.Poisson); ("lognormal", Arrivals.Lognormal 1.0) ]

let test_lognormal_burstier_than_poisson () =
  let rng = Rng.create 5 in
  let var a =
    let n = 100_000 in
    let xs = Array.init n (fun _ -> Arrivals.gap a rng ~mean:10.0) in
    let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. float_of_int n
  in
  Alcotest.(check bool) "sigma=2 lognormal has much higher variance" true
    (var (Arrivals.Lognormal 2.0) > 3.0 *. var Arrivals.Poisson)

(* ------------------------------ Traffic ---------------------------- *)

let spec ?(load = 0.5) ?(duration = Time.ms 1.0) ?(matrix = Traffic.Uniform) () =
  {
    Traffic.hosts = Array.init 8 (fun i -> i);
    dist = Dist.fixed 10_000;
    arrivals = Arrivals.Poisson;
    load;
    ref_capacity_gbps = 100.0;
    core_fraction = 1.0;
    matrix;
    duration;
    seed = 9;
    prio_classes = 1;
  }

let test_traffic_sorted_and_valid () =
  let ids = ref 0 in
  let flows = Traffic.generate (spec ()) ~ids in
  Alcotest.(check bool) "nonempty" true (flows <> []);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Flow.arrival <= b.Flow.arrival && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted flows);
  List.iter
    (fun f ->
      Alcotest.(check bool) "src <> dst" true (f.Flow.src <> f.Flow.dst);
      Alcotest.(check bool) "hosts in range" true (f.Flow.src < 8 && f.Flow.dst < 8))
    flows;
  (* unique ids *)
  let tbl = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace tbl f.Flow.id ()) flows;
  check Alcotest.int "ids unique" (List.length flows) (Hashtbl.length tbl)

let test_traffic_load_calibration () =
  let ids = ref 0 in
  let duration = Time.ms 20.0 in
  let flows = Traffic.generate (spec ~load:0.5 ~duration ()) ~ids in
  let bytes = List.fold_left (fun acc f -> acc + f.Flow.size) 0 flows in
  (* expected: 0.5 x 12.5 GB/s x 20 ms = 125 MB *)
  let expected = 0.5 *. 12.5 *. float_of_int duration in
  let err = Float.abs (float_of_int bytes -. expected) /. expected in
  Alcotest.(check bool) (Printf.sprintf "offered load within 15%% (err %.2f)" err) true (err < 0.15)

let test_traffic_to_one () =
  let ids = ref 0 in
  let flows = Traffic.generate (spec ~matrix:(Traffic.To_one 3) ()) ~ids in
  List.iter (fun f -> check Alcotest.int "all to 3" 3 f.Flow.dst) flows

let test_traffic_rack_local () =
  let rack_of h = h / 4 in
  let ids = ref 0 in
  let flows =
    Traffic.generate (spec ~matrix:(Traffic.Rack_local { local_frac = 1.0; rack_of }) ()) ~ids
  in
  List.iter
    (fun f -> check Alcotest.int "same rack" (rack_of f.Flow.src) (rack_of f.Flow.dst))
    flows

let test_incast_generation () =
  let ids = ref 0 in
  let inc =
    Traffic.generate_incast
      {
        Traffic.i_hosts = Array.init 16 (fun i -> i);
        degree = 5;
        agg_size = 50_000;
        period = Time.us 100.0;
        i_duration = Time.us 550.0;
        i_seed = 3;
      }
      ~ids
  in
  check Alcotest.int "5 events x 5 senders" 25 (List.length inc);
  List.iter
    (fun f ->
      Alcotest.(check bool) "marked incast" true f.Flow.is_incast;
      check Alcotest.int "per-sender share" 10_000 f.Flow.size)
    inc;
  (* each event: distinct senders, none equal to dst *)
  let by_time = Hashtbl.create 8 in
  List.iter
    (fun f ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_time f.Flow.arrival) in
      Hashtbl.replace by_time f.Flow.arrival (f :: l))
    inc;
  Hashtbl.iter
    (fun _ fs ->
      let dsts = List.sort_uniq compare (List.map (fun f -> f.Flow.dst) fs) in
      check Alcotest.int "single dst per event" 1 (List.length dsts);
      let srcs = List.sort_uniq compare (List.map (fun f -> f.Flow.src) fs) in
      check Alcotest.int "distinct senders" 5 (List.length srcs);
      List.iter (fun f -> Alcotest.(check bool) "src<>dst" true (f.Flow.src <> f.Flow.dst)) fs)
    by_time

let test_incast_degree_beyond_hosts () =
  let ids = ref 0 in
  let inc =
    Traffic.generate_incast
      {
        Traffic.i_hosts = Array.init 4 (fun i -> i);
        degree = 10;
        agg_size = 10_000;
        period = Time.us 50.0;
        i_duration = Time.us 60.0;
        i_seed = 4;
      }
      ~ids
  in
  check Alcotest.int "10 flows though only 4 hosts" 10 (List.length inc)

let test_period_for_load () =
  (* 20MB at 5% of 6.4Tb/s: 20e6 / (0.05 x 800e9/8 bytes-per-s) = 500us *)
  check Alcotest.int "paper numbers" (Time.us 500.0)
    (Traffic.period_for_load ~agg_size:20_000_000 ~frac:0.05 ~ref_capacity_gbps:6400.0)

let test_long_lived_and_merge () =
  let ids = ref 0 in
  let a = Traffic.long_lived ~pairs:[| (0, 1); (2, 3) |] ~size:5000 ~ids () in
  check Alcotest.int "two flows" 2 (List.length a);
  let b =
    [ Flow.make ~id:100 ~src:4 ~dst:5 ~size:1 ~arrival:(Time.us 5.0) () ]
  in
  let merged = Traffic.merge [ b; a ] in
  check Alcotest.int "merged sorted by arrival" 0 (List.hd merged).Flow.arrival

let suite =
  [
    ("dist sample bounds", `Quick, test_dist_sample_bounds);
    ("dist sample mean", `Slow, test_dist_sample_mean_matches);
    ("dist cdf monotone", `Quick, test_dist_cdf_monotone);
    ("dist byte-cdf anchors", `Quick, test_dist_byte_cdf_anchors);
    ("dist fixed", `Quick, test_dist_fixed);
    ("dist by name", `Quick, test_dist_by_name);
    ("dist malformed", `Quick, test_dist_malformed);
    ("arrival means", `Quick, test_arrival_means);
    ("lognormal burstier", `Quick, test_lognormal_burstier_than_poisson);
    ("traffic sorted and valid", `Quick, test_traffic_sorted_and_valid);
    ("traffic load calibration", `Quick, test_traffic_load_calibration);
    ("traffic to-one", `Quick, test_traffic_to_one);
    ("traffic rack-local", `Quick, test_traffic_rack_local);
    ("incast generation", `Quick, test_incast_generation);
    ("incast degree beyond hosts", `Quick, test_incast_degree_beyond_hosts);
    ("incast period for load", `Quick, test_period_for_load);
    ("long lived and merge", `Quick, test_long_lived_and_merge);
    QCheck_alcotest.to_alcotest prop_dist_sample_within_support;
  ]
