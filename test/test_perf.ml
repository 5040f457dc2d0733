(* Regression tests for the performance-engineering layer: per-sim
   packet indices, the reusable ticker handle, the packet pool's full-field
   reset, the packet's size, packed fields, flags and side tables, the packet table's
   index lifecycle, determinism of the
   domain-parallel sweep runner, the engine's
   fire order against a recorded trace, the allocation bounds of the
   packet hop and of per-flow work, the footprint of a pending typed
   event, and the flow table's footprint, which follows its live slots. *)

open Alcotest
module Rng = Bfc_util.Rng
module Sim = Bfc_engine.Sim
module Time = Bfc_engine.Time
module Packet = Bfc_net.Packet
module Exp_common = Bfc_sim.Exp_common
module Experiments = Bfc_sim.Experiments
module Pool = Bfc_sim.Pool

(* ------------------------- per-sim indices ------------------------ *)

(* Packets are named by their index in their sim's table. Two fresh sims
   running the same acquire/release sequence hand out the same indices,
   starting at 0, and a released index is the next one reused. *)
let test_index_sequences_identical_across_sims () =
  let indices () =
    let pool = Bfc_net.Port.pool (Sim.create ()) in
    let acquire () =
      Packet.Pool.acquire pool Packet.Data ~flow:Packet.no_flow ~dst:1 ~size:1000 ~seq:0
    in
    let live = Array.init 50 (fun _ -> acquire ()) in
    let first = Array.to_list (Array.map Packet.idx live) in
    Array.iteri (fun i p -> if i mod 3 = 0 then Packet.Pool.release pool p) live;
    first @ List.init 20 (fun _ -> Packet.idx (acquire ()))
  in
  let a = indices () in
  check (list int) "fresh sims give identical index sequences" a (indices ());
  check (list int) "indices start at 0" (List.init 50 Fun.id) (List.filteri (fun i _ -> i < 50) a);
  check int "the last released index is reused first" 48 (List.nth a 50)

(* ------------------------------ ticker ----------------------------- *)

let test_ticker_no_event_leak () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let tk = Sim.every sim ~period:(Time.us 1.0) (fun () -> incr fired) in
  (* a running ticker keeps exactly one armed handle in the queue *)
  ignore (Sim.run sim ~until:(Time.us 10.5));
  check int "fired each period" 10 !fired;
  check int "one pending event while running" 1 (Sim.pending_events sim);
  Sim.stop_ticker tk;
  check int "stop cancels the armed handle" 0 (Sim.pending_events sim);
  ignore (Sim.run sim ~until:(Time.us 30.0));
  check int "no fires after stop" 10 !fired

(* ---------------------------- packet pool -------------------------- *)

(* A flow record with the given header fields, as hosts hold theirs. *)
let flow_record ~slot ~id ~incast =
  let f = Bfc_net.Flow.make ~id ~src:0 ~dst:0 ~size:1 ~arrival:0 ~is_incast:incast () in
  f.Bfc_net.Flow.slot <- slot;
  f

let test_pool_reset_all_fields () =
  let pool = Packet.Pool.create () in
  let flow = Packet.ref_of (flow_record ~slot:12 ~id:3 ~incast:true) in
  let p = Packet.Pool.data pool ~flow ~dst:4 ~prio:2 ~seq:7 ~payload:1400 ~extra_header:0 in
  check int "flow id from data" 3 (Packet.fid p);
  check int "payload from data" 1400 (Packet.payload p);
  (* dirty every mutable field a switch/host can touch *)
  Packet.Pool.set_remaining pool p 900;
  Packet.set_upstream_q p 5;
  Packet.set_ecn p true;
  Packet.set_ecn_echo p true;
  Packet.set_bp_in_port p 9;
  Packet.set_bp_upq p 11;
  Packet.set_bp_counted p true;
  Packet.set_bp_sampled p false;
  Packet.set_sent_at p 123;
  Packet.set_enq_at p 456;
  Packet.set_ctrl_a p 77;
  Packet.set_ctrl_b p 88;
  Packet.Pool.set_bitmap pool p [| 1; 2; 3 |];
  Packet.Pool.add_int_hop pool p ~ts:10 ~tx_bytes:100 ~qlen:200 ~gbps:100.0 ~link:1;
  Packet.Pool.add_int_hop pool p ~ts:20 ~tx_bytes:300 ~qlen:400 ~gbps:100.0 ~link:2;
  check int "hops recorded" 2 (Packet.Pool.int_hop_count pool p);
  let i = Packet.idx p in
  Packet.Pool.release pool p;
  check int "parked: size reset" 0 (Packet.size p);
  check int "parked: dst reset" (-1) (Packet.dst p);
  check bool "parked: flow dropped" true (Packet.flow p = Packet.no_flow);
  let q = Packet.Pool.acquire pool Packet.Ack ~flow:Packet.no_flow ~dst:0 ~size:64 ~seq:0 in
  check bool "recycled the same record" true (p == q);
  check bool "kind from acquire" true (Packet.kind q = Packet.Ack);
  check int "dst from acquire" 0 (Packet.dst q);
  check int "size from acquire" 64 (Packet.size q);
  check bool "ecn reset" false (Packet.ecn q);
  check bool "ecn_echo reset" false (Packet.ecn_echo q);
  check int "bp_in_port reset" (-1) (Packet.bp_in_port q);
  check int "bp_upq reset" (-1) (Packet.bp_upq q);
  check bool "bp_counted reset" false (Packet.bp_counted q);
  check bool "bp_sampled reset" true (Packet.bp_sampled q);
  check int "bitmap cleared" 0 (Array.length (Packet.Pool.bitmap pool q));
  check int "int_hops cursor reset" 0 (Packet.Pool.int_hop_count pool q);
  check int "payload reset" 0 (Packet.payload q);
  check int "seq reset" 0 (Packet.seq q);
  check int "prio reset" 0 (Packet.prio q);
  check int "remaining reset" 0 (Packet.Pool.remaining pool q);
  check int "upstream_q reset" 0 (Packet.upstream_q q);
  check int "sent_at reset" 0 (Packet.sent_at q);
  check int "enq_at reset" 0 (Packet.enq_at q);
  check int "ctrl_a reset" 0 (Packet.ctrl_a q);
  check int "ctrl_b reset" 0 (Packet.ctrl_b q);
  check bool "flow reset" true (Packet.flow q = Packet.no_flow);
  check int "flow id reset" (-1) (Packet.fid q);
  check int "flow slot reset" (-1) (Packet.flow_slot q);
  check bool "incast reset" false (Packet.incast q);
  check int "index kept" i (Packet.idx q)

(* Every packet carries only what every scheme needs, in 8 fields, five
   of them packed words: a 9-word block with its header, one of OCaml 5's
   size classes. A queued packet costs nothing more, since its queue
   links through it. Each word per packet costs about 0.25 MB of peak heap
   on the DCQCN Clos run, whose switch buffers hold tens of thousands of
   packets at the peak. *)
let test_packet_footprint () =
  let pool = Packet.Pool.create () in
  let p = Packet.Pool.acquire pool Packet.Data ~flow:Packet.no_flow ~dst:1 ~size:100 ~seq:0 in
  let fields = Obj.size (Obj.repr p) in
  if fields > 8 then failf "a packet has %d fields, bound 8" fields

(* The flags a switch or host sets. *)
let flag_accessors =
  [
    ("ecn", Packet.ecn, Packet.set_ecn);
    ("ecn_echo", Packet.ecn_echo, Packet.set_ecn_echo);
    ("bp_counted", Packet.bp_counted, Packet.set_bp_counted);
    ("bp_sampled", Packet.bp_sampled, Packet.set_bp_sampled);
  ]

(* The packed fields a packet is built with, with their ranges:
   (name, get, min, max), in [build]'s order. *)
let built_fields =
  [
    ("size", Packet.size, 0, 65535);
    ("payload", Packet.payload, 0, 65535);
    ("dst", Packet.dst, -1, (1 lsl 31) - 2);
    ("fid", Packet.fid, -1, (1 lsl 32) - 2);
    ("flow_slot", Packet.flow_slot, -1, (1 lsl 30) - 2);
  ]

(* The packed fields with a setter: (name, get, set, min, max). *)
let packed_fields =
  [
    ("prio", Packet.prio, Packet.set_prio, -1, 8190);
    ("upstream_q", Packet.upstream_q, Packet.set_upstream_q, -1, 16382);
    ("bp_in_port", Packet.bp_in_port, Packet.set_bp_in_port, -1, 16382);
    ("bp_upq", Packet.bp_upq, Packet.set_bp_upq, -1, 16382);
    ("ctrl_a", Packet.ctrl_a, Packet.set_ctrl_a, -1, (1 lsl 41) - 2);
    ("ctrl_b", Packet.ctrl_b, Packet.set_ctrl_b, 0, (1 lsl 22) - 1);
  ]

let all_kinds =
  Packet.
    [
      Data; Ack; Nack; Credit; Credit_req; Grant; Pause; Resume; Pause_bitmap; Hop_credit; Pfc; Cnp;
    ]

let kind_index p =
  let k = Packet.kind p in
  let rec find i = function [] -> -1 | x :: r -> if x = k then i else find (i + 1) r in
  find 0 all_kinds

(* Everything a packed word holds, as ints: the kind's position, the
   incast label, the flags and the numeric fields. *)
let packed_values p =
  kind_index p
  :: Bool.to_int (Packet.incast p)
  :: List.map (fun (_, get, _) -> Bool.to_int (get p)) flag_accessors
  @ List.map (fun (_, get, _, _) -> get p) built_fields
  @ List.map (fun (_, get, _, _, _) -> get p) packed_fields

(* A packet built with [kind], the incast label [hi] and [built] (values
   of [built_fields]), every flag at [hi] and every field with a setter at
   its minimum ([hi = false]) or its maximum. *)
let build kind ~hi built =
  match built with
  | [ size; payload; dst; id; slot ] ->
    let p =
      Packet.make kind ~flow:(flow_record ~slot ~id ~incast:hi) ~dst ~size ~payload ()
    in
    List.iter (fun (_, _, set) -> set p hi) flag_accessors;
    List.iter (fun (_, _, set, lo, top) -> set p (if hi then top else lo)) packed_fields;
    p
  | _ -> invalid_arg "build"

(* Each packed field holds its minimum, its maximum and its sentinel -1
   while its neighbours sit at both extremes, and a value outside its
   range raises (a setter's without touching the packet). The kind takes
   every constructor. *)
let test_packet_fields () =
  let nb = 2 + List.length flag_accessors in
  let ns = nb + List.length built_fields in
  List.iter
    (fun hi ->
      let kind = if hi then Packet.Cnp else Packet.Data in
      let extremes = List.map (fun (_, _, lo, top) -> if hi then top else lo) built_fields in
      let base = packed_values (build kind ~hi extremes) in
      List.iteri
        (fun k (name, get, lo, top) ->
          let with_value v = List.mapi (fun j e -> if j = k then v else e) extremes in
          List.iter
            (fun v ->
              let p = build kind ~hi (with_value v) in
              check int (name ^ " reads back") v (get p);
              check (list int) (name ^ " leaves the others")
                (List.mapi (fun j b -> if j = nb + k then v else b) base)
                (packed_values p))
            (List.filter (fun v -> v >= lo) [ lo; top; -1 ]);
          List.iter
            (fun v ->
              match build kind ~hi (with_value v) with
              | _ -> failf "%s accepted %d" name v
              | exception Invalid_argument _ -> ())
            [ lo - 1; top + 1; min_int; max_int ])
        built_fields;
      let p = build kind ~hi extremes in
      List.iteri
        (fun k (name, get, set, lo, top) ->
          List.iter
            (fun v ->
              set p v;
              check int (name ^ " reads back") v (get p);
              check (list int) (name ^ " leaves the others")
                (List.mapi (fun j b -> if j = ns + k then v else b) base)
                (packed_values p))
            (List.filter (fun v -> v >= lo) [ lo; top; -1 ]);
          set p (if hi then top else lo);
          List.iter
            (fun v ->
              (match set p v with
              | () -> failf "%s accepted %d" name v
              | exception Invalid_argument _ -> ());
              check (list int) (name ^ " unchanged after a rejected value") base (packed_values p))
            [ lo - 1; top + 1; min_int; max_int ])
        packed_fields;
      List.iteri
        (fun i k ->
          check (list int) "kind reads back, the others kept" (i :: List.tl base)
            (packed_values (build k ~hi extremes)))
        all_kinds)
    [ false; true ]

let flag_values p = List.map (fun (_, get, _) -> get p) flag_accessors

(* The flags share the header word: setting or clearing one leaves the
   others as they were, and a recycled packet gets [make]'s flags back. *)
let test_packet_flags () =
  let pool = Packet.Pool.create () in
  let p = Packet.Pool.acquire pool Packet.Data ~flow:Packet.no_flow ~dst:1 ~size:100 ~seq:0 in
  let fresh = flag_values (Packet.make Packet.Data ~dst:1 ~size:100 ()) in
  check (list bool) "fresh flags" [ false; false; false; true ] fresh;
  check (list bool) "acquired flags" fresh (flag_values p);
  List.iteri
    (fun k (name, get, set) ->
      List.iter
        (fun base ->
          (* every other flag at [base], this one flipped both ways *)
          List.iter (fun (_, _, set') -> set' p base) flag_accessors;
          List.iter
            (fun v ->
              set p v;
              check bool (name ^ " reads back") v (get p);
              check (list bool) (name ^ " leaves the others")
                (List.mapi (fun j _ -> if j = k then v else base) flag_accessors)
                (flag_values p))
            [ not base; base ])
        [ false; true ])
    flag_accessors;
  let set_all v = List.iter (fun (_, _, set) -> set p v) flag_accessors in
  set_all true;
  Packet.set_bp_sampled p false;
  Packet.Pool.release pool p;
  let q = Packet.Pool.acquire pool Packet.Data ~flow:Packet.no_flow ~dst:1 ~size:100 ~seq:0 in
  check bool "recycled" true (p == q);
  check (list bool) "release resets the flags" fresh (flag_values q)

let hop_links pool p =
  Array.to_list
    (Array.map
       (fun h -> h.Packet.h_link)
       (Array.sub (Packet.Pool.int_hops pool p) 0 (Packet.Pool.int_hop_count pool p)))

(* A packet's INT stack and bitmap live in its table's side tables, by
   index: they must die with the packet's incarnation, and follow it
   into an ack ([copy_int_hops]) as copies that share no record with
   the original. *)
let test_packet_side_tables () =
  let pool = Packet.Pool.create () in
  let acquire kind = Packet.Pool.acquire pool kind ~flow:Packet.no_flow ~dst:1 ~size:100 ~seq:0 in
  check int "a fresh table has no side tables" 0 (Packet.Pool.side_slots pool);
  let p = acquire Packet.Data in
  Packet.Pool.set_bitmap pool p [||];
  check int "an empty bitmap makes no side table" 0 (Packet.Pool.side_slots pool);
  let ack = acquire Packet.Ack in
  Packet.Pool.copy_int_hops pool ~src:p ~dst:ack;
  check int "copying no INT stack makes no side table" 0 (Packet.Pool.side_slots pool);
  Packet.Pool.set_remaining pool p 0;
  check int "a zero remaining makes no side table" 0 (Packet.Pool.side_slots pool);
  check int "remaining reads 0 before any set" 0 (Packet.Pool.remaining pool p);
  Packet.Pool.set_remaining pool p 4_000;
  check int "remaining reads back" 4_000 (Packet.Pool.remaining pool p);
  check int "the ack's remaining is its own" 0 (Packet.Pool.remaining pool ack);
  let stamp q link =
    Packet.Pool.add_int_hop pool q ~ts:link ~tx_bytes:(10 * link) ~qlen:0 ~gbps:100.0 ~link
  in
  List.iter (stamp p) [ 1; 2; 3; 4; 5 ];
  Packet.Pool.set_bitmap pool p [| 7; 9 |];
  check (list int) "stack in path order" [ 1; 2; 3; 4; 5 ] (hop_links pool p);
  Packet.Pool.copy_int_hops pool ~src:p ~dst:ack;
  check (list int) "the ack carries the stack" [ 1; 2; 3; 4; 5 ] (hop_links pool ack);
  check bool "in its own records" true
    ((Packet.Pool.int_hops pool ack).(0) != (Packet.Pool.int_hops pool p).(0));
  check int "the ack has no bitmap" 0 (Array.length (Packet.Pool.bitmap pool ack));
  Packet.Pool.release pool p;
  check (list int) "the ack's copy outlives the data packet" [ 1; 2; 3; 4; 5 ]
    (hop_links pool ack);
  let q = acquire Packet.Data in
  check bool "recycled" true (p == q);
  check int "no INT stack in the next incarnation" 0 (Packet.Pool.int_hop_count pool q);
  check int "no bitmap in the next incarnation" 0 (Array.length (Packet.Pool.bitmap pool q));
  check int "no remaining in the next incarnation" 0 (Packet.Pool.remaining pool q);
  stamp q 8;
  check (list int) "a new stack starts empty" [ 8 ] (hop_links pool q);
  check (list int) "and leaves the ack's alone" [ 1; 2; 3; 4; 5 ] (hop_links pool ack)

let test_pool_double_release_rejected () =
  let pool = Packet.Pool.create () in
  let p = Packet.Pool.acquire pool Packet.Data ~flow:Packet.no_flow ~dst:1 ~size:100 ~seq:0 in
  Packet.Pool.release pool p;
  check_raises "double release"
    (Invalid_argument "Packet.Pool.release: double release") (fun () ->
      Packet.Pool.release pool p)

(* A packet's index in its sim's table is its name in every queue and
   delivery event: fixed for life, never shared by two live packets. *)
let test_packet_index_lifecycle () =
  let sim = Sim.create () in
  let pool = Bfc_net.Port.pool sim in
  check bool "one table per sim" true (pool == Bfc_net.Port.pool sim);
  let acquire () =
    Packet.Pool.acquire pool Packet.Data ~flow:Packet.no_flow ~dst:1 ~size:100 ~seq:0
  in
  let live = List.init 8 (fun _ -> acquire ()) in
  let idxs = List.map (fun p -> Packet.idx p) live in
  check int "live packets have distinct indices" 8
    (List.length (List.sort_uniq Int.compare idxs));
  List.iter
    (fun p -> check bool "get finds the packet" true (Packet.Pool.get pool (Packet.idx p) == p))
    live;
  let p = List.hd live in
  let i = Packet.idx p in
  Packet.Pool.release pool p;
  check int "index kept while parked" i (Packet.idx p);
  let q = acquire () in
  check bool "recycled the parked packet" true (q == p);
  check int "same index after reacquire" i (Packet.idx q);
  let m = Packet.make Packet.Ack ~dst:1 ~size:64 () in
  check int "no index before the table sees it" (-1) (Packet.idx m);
  let j = Packet.Pool.index pool m in
  check bool "a fresh index, no live packet's" false (List.mem j idxs);
  check int "indexing is idempotent" j (Packet.Pool.index pool m);
  Packet.Pool.release pool m;
  check int "released with its index" j (Packet.idx m);
  check_raises "double release"
    (Invalid_argument "Packet.Pool.release: double release") (fun () ->
      Packet.Pool.release pool m);
  let foreign =
    Packet.Pool.acquire (Bfc_net.Port.pool (Sim.create ())) Packet.Data ~flow:Packet.no_flow 
      ~dst:1 ~size:100 ~seq:0
  in
  check_raises "packet of another sim"
    (Invalid_argument "Packet.Pool.index: packet of another simulation") (fun () ->
      ignore (Packet.Pool.index pool foreign))

(* -------------------------- parallel sweeps ------------------------ *)

let test_pool_run_preserves_order () =
  let tasks = List.init 40 (fun i -> fun () -> i * i) in
  check (list int) "jobs=4 matches sequential" (Pool.run ~jobs:1 tasks)
    (Pool.run ~jobs:4 tasks)

let test_pool_run_error_in_task_order () =
  let boom i = Failure (Printf.sprintf "task %d" i) in
  let tasks = List.init 8 (fun i -> fun () -> if i >= 5 then raise (boom i) else i) in
  let index_of = function
    | Pool.Task_error { index; _ } -> index
    | _ -> -1
  in
  let got j =
    match Pool.run ~jobs:j tasks with
    | _ -> -1
    | exception e -> index_of e
  in
  check int "sequential reports first failing task" 5 (got 1);
  check int "parallel reports the same task" 5 (got 4)

let test_run_parallel_rows_identical () =
  (* a smoke-profile multi-point experiment through the figure runner,
     sequential vs 2 and 4 domains: the table rows and the CSV files must
     be byte-identical *)
  let target =
    match Experiments.resolve [ "fig12" ] with Ok [ t ] -> t | _ -> fail "fig12 missing"
  in
  let flat ts =
    List.concat_map
      (fun t -> (t.Exp_common.title :: t.Exp_common.header) :: t.Exp_common.rows)
      ts
  in
  let run jobs =
    let dir = Filename.temp_dir "bfc_csv" "" in
    let rows = flat (Experiments.run ~csv_dir:dir ~jobs Exp_common.Smoke target) in
    let csvs =
      List.map
        (fun name ->
          let path = Filename.concat dir name in
          let bytes = In_channel.with_open_bin path In_channel.input_all in
          Sys.remove path;
          (name, bytes))
        (List.sort String.compare (Array.to_list (Sys.readdir dir)))
    in
    Sys.rmdir dir;
    (rows, csvs)
  in
  let seq_rows, seq_csvs = run 1 in
  check bool "writes CSVs" true (seq_csvs <> []);
  List.iter
    (fun jobs ->
      let rows, csvs = run jobs in
      check (list (list string)) (Printf.sprintf "rows byte-identical at jobs=%d" jobs) seq_rows
        rows;
      check (list (pair string string))
        (Printf.sprintf "CSVs byte-identical at jobs=%d" jobs)
        seq_csvs csvs)
    [ 2; 4 ]

(* ------------------------ recorded fire order ---------------------- *)

(* A random Sim-level schedule with one-shots, cancels, self-rescheduling
   chains and tickers, driven through the Sim dispatch (removal of
   cancelled entries, every-tick re-push), not just the raw queue. The
   fixture fixtures/sim/fire_order.expected holds the traces of seeds
   1-5, recorded when the engine still had a second (4-ary heap) queue
   backend and both backends were asserted to produce them; the chains
   were then reusable handles re-armed from their own callback, which
   queued exactly as the one-shot [at]s that replace them. *)
let sim_fire_trace seed =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let trace = ref [] in
  let record tag id = trace := ((tag : int), (id : int), Sim.now sim) :: !trace in
  let cancellable = ref [] in
  for i = 0 to 399 do
    let t = Rng.int rng 100_000 in
    let h = Sim.at sim t (fun () -> record 0 i) in
    if Rng.bernoulli rng 0.3 then cancellable := h :: !cancellable
  done;
  (* chains: each event schedules the next at a random horizon from
     inside its own callback *)
  for i = 0 to 9 do
    let hops = ref 0 in
    let rec hop at =
      ignore
        (Sim.at sim at (fun () ->
             record 1 i;
             incr hops;
             if !hops < 50 then hop (Sim.now sim + 1 + Rng.int rng 5_000)))
    in
    hop (1 + Rng.int rng 1_000)
  done;
  let tks = List.init 5 (fun i -> Sim.every sim ~period:(7_001 + i) (fun () -> record 2 i)) in
  (* cancel a random subset mid-run, removing their queue entries *)
  ignore
    (Sim.at sim 50_000 (fun () ->
         List.iter Sim.cancel !cancellable;
         List.iter Sim.stop_ticker tks));
  ignore (Sim.run_until_idle sim);
  List.rev !trace

let fire_order_fixture =
  if Sys.file_exists "fixtures/sim" then "fixtures/sim/fire_order.expected"
  else "test/fixtures/sim/fire_order.expected"

let test_sim_differential_random_schedule () =
  let b = Buffer.create 65536 in
  for seed = 1 to 5 do
    let trace = sim_fire_trace seed in
    Printf.bprintf b "seed %d %d\n" seed (List.length trace);
    List.iter (fun (tag, id, t) -> Printf.bprintf b "%d %d %d\n" tag id t) trace
  done;
  let ic = open_in_bin fire_order_fixture in
  let expected =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  check string "fire order matches the recorded trace" expected (Buffer.contents b)

(* -------------------------- allocation guard ----------------------- *)

(* A fixed BFC Clos run, shared by the two guards below: minor words and
   executed events of the run phase after a 200 us warm-up, and the
   engine profile at the end. *)
let run_bfc_clos () =
  let sim = Sim.create () in
  let cl =
    Bfc_net.Topology.clos sim ~spines:2 ~tors:2 ~hosts_per_tor:4 ~gbps:100.0 ~prop:(Time.us 1.0)
  in
  let env =
    Bfc_sim.Runner.setup ~topo:cl.Bfc_net.Topology.t ~scheme:Bfc_sim.Scheme.bfc
      ~params:Bfc_sim.Runner.default_params
  in
  let hosts = cl.Bfc_net.Topology.cl_hosts in
  let n = Array.length hosts in
  (* 3-to-1 incasts across the spines plus same-rack pairs: BFC pauses,
     DRR over several active queues, and multi-hop paths *)
  let flows =
    List.init 24 (fun i ->
        Bfc_net.Flow.make ~id:i ~src:hosts.(i mod n) ~dst:hosts.((i / 3 * 5 + 4) mod n)
          ~size:(1_000_000 + (i * 20_000))
          ~arrival:(i * Time.us 2.0) ())
    |> List.filter (fun f -> f.Bfc_net.Flow.src <> f.Bfc_net.Flow.dst)
  in
  Bfc_sim.Runner.inject env flows;
  Bfc_sim.Runner.run env ~until:(Time.us 200.0);
  let e0 = Bfc_sim.Runner.events_executed env in
  let w0 = Gc.minor_words () in
  Bfc_sim.Runner.drain env ~budget:(Time.us 20_000.0);
  let words = Gc.minor_words () -. w0 in
  let events = Bfc_sim.Runner.events_executed env - e0 in
  check int "every flow completed" (List.length flows) (Bfc_sim.Runner.completed env);
  check bool "a real run" true (events > 50_000);
  (words, events, Sim.profile sim, Packet.Pool.side_slots (Bfc_net.Port.pool sim))

let bfc_clos_run = lazy (run_bfc_clos ())

(* The packet hop (NIC -> port -> switch -> host) allocates nothing once
   warm, so the Clos run allocates well under one minor word per executed
   event. Only the run phase is measured: set-up allocates the topology
   and flow records, and the warm-up grows the packet pool and the
   wheel's slab to their high-water marks. Counts are deterministic, so
   the bound is exact, not a timing gate. *)
let test_bfc_clos_minor_words () =
  let words, events, _, _ = Lazy.force bfc_clos_run in
  let per_event = words /. float_of_int events in
  if per_event > 1.0 then
    failf "%.3f minor words per event (%d events), bound 1.0" per_event events

(* The event queue's storage follows the live events: a cancelled event
   leaves the wheel at once, and the slab only doubles, so its capacity
   stays within a small factor of the deepest the queue got. *)
let test_wheel_storage_tracks_live () =
  let _, _, p, _ = Lazy.force bfc_clos_run in
  if p.Sim.p_heap_capacity > 8 * p.Sim.p_heap_hwm then
    failf "wheel capacity %d for a queue high-water mark of %d" p.Sim.p_heap_capacity
      p.Sim.p_heap_hwm

(* A pending typed event is one wheel record, held nowhere else: 8,192
   pending posts grow the sim by about 8 words each (the slab grows to
   exactly 8,192 records), so a second per-event record or table slot
   would break the bound of 10. *)
let test_typed_event_footprint () =
  let sim = Sim.create () in
  let cls = Sim.cls_port_tx in
  Sim.register_class sim ~cls ~state:Sim.No_state ~exec:(fun _ _ _ -> ());
  let words () = Obj.reachable_words (Obj.repr sim) in
  let w0 = words () and n = 8_192 in
  for i = 1 to n do
    Sim.post sim i ~cls ~a0:i ~a1:0
  done;
  let per_event = float_of_int (words () - w0) /. float_of_int n in
  check int "all pending" n (Sim.pending_events sim);
  if per_event > 10.0 then failf "%.2f words per pending typed event, bound 10" per_event;
  check int "all fire" n (Sim.run_until_idle sim)

(* A pending stream arrival is ints in its event record: the flow's
   record is built when it arrives, so posting arrivals grows the sim by
   its typed events alone. *)
let test_stream_arrival_footprint () =
  let sim = Sim.create () in
  let cl =
    Bfc_net.Topology.clos sim ~spines:2 ~tors:2 ~hosts_per_tor:4 ~gbps:100.0 ~prop:(Time.us 1.0)
  in
  let env =
    Bfc_sim.Runner.setup ~topo:cl.Bfc_net.Topology.t ~scheme:Bfc_sim.Scheme.bfc
      ~params:Bfc_sim.Runner.default_params
  in
  let hosts = cl.Bfc_net.Topology.cl_hosts in
  let nh = Array.length hosts in
  let words () = Obj.reachable_words (Obj.repr sim) in
  let w0 = words () and n = 8_192 in
  Sim.reserve sim n;
  for i = 0 to n - 1 do
    Bfc_sim.Runner.inject_mtu env ~id:i ~src:hosts.(i mod nh) ~dst:hosts.((i + 1) mod nh)
      ~at:(1 + (i * 100))
  done;
  let per_arrival = float_of_int (words () - w0) /. float_of_int n in
  check int "all pending" n (Sim.pending_events sim);
  if per_arrival > 10.0 then failf "%.2f words per pending stream arrival, bound 10" per_arrival;
  Bfc_sim.Runner.drain env ~budget:(Time.ms 10.0);
  check int "all complete" n (Bfc_sim.Runner.completed env)

(* BFC without pause bitmaps or SRF stamps no INT, sends no bitmap and
   sets no [remaining], so its packet table makes no side table. *)
let test_bfc_clos_no_side_tables () =
  let _, _, _, side = Lazy.force bfc_clos_run in
  check int "side-table slots" 0 side

(* BFC's flow table stores its live slots only, in two int arrays of
   four-word entries (the table and the spare a purge rebuilds into). It
   grows only when the live slots fill more than a quarter of it, so L
   live slots cost at most 2 x 4 x 8 (L + 1) words, or the fresh 64-entry
   table, plus a few words of header. The table has the reference run's
   64 egresses x 4,096 slots, so a structure with even one word per
   8 slots fails the bound. *)
let test_flow_table_footprint () =
  List.iter
    (fun l ->
      let ft =
        Bfc_core.Flow_table.create ~egresses:64 ~queues_per_port:32 ~mult:100 ~sticky:10
      in
      for j = 0 to l - 1 do
        let i = Bfc_core.Flow_table.slot ft ~egress:(j mod 64) ~fid_hash:(8 * (j / 64)) ~now:0 in
        Bfc_core.Flow_table.set_size ft i 1
      done;
      let words = Obj.reachable_words (Obj.repr ft) in
      let bound = (64 * l) + 1_024 in
      if words > bound then failf "%d live slots take %d words, bound %d" l words bound)
    [ 0; 1; 10; 100; 1_000; 10_000 ]

(* The table's size does not follow [mult]: a fresh table is the same at
   100x and at 400x the queue count. *)
let test_flow_table_fresh_ignores_mult () =
  let words mult =
    Obj.reachable_words
      (Obj.repr
         (Bfc_core.Flow_table.create ~egresses:64 ~queues_per_port:32 ~mult ~sticky:10))
  in
  check int "fresh words at 400x" (words 100) (words 400)

(* 100,000 distinct slots, each assigned, touched and emptied at the
   current time while the clock moves 1 ns per slot: with a 10 ns sticky
   window at most 11 are live at once, and the table stays within the
   footprint bound for them however many slots went by. *)
let test_flow_table_forgets_vacant () =
  let ft = Bfc_core.Flow_table.create ~egresses:64 ~queues_per_port:32 ~mult:100 ~sticky:10 in
  for j = 0 to 99_999 do
    let i = Bfc_core.Flow_table.slot ft ~egress:(j mod 64) ~fid_hash:(j / 64) ~now:j in
    Bfc_core.Flow_table.set_q ft i 0;
    Bfc_core.Flow_table.set_last ft i j
  done;
  let words = Obj.reachable_words (Obj.repr ft) in
  let bound = (64 * 11) + 1_024 in
  if words > bound then failf "100,000 slots went by: %d words, bound %d" words bound

(* Per-flow work allocates a bounded number of words: flow start and
   reclaim are typed events, and per-flow transport records are reused
   from slot tables. The count covers the whole streaming run, set-up
   and the workload generator included. Under the dev profile (no
   cross-module inlining) it reads 4.45 words per event, against 5.51
   while [Rng] boxed its state and 23.5 with closure events and fresh
   records per flow; the bound sits about 20% above 4.45. *)
let test_flow_churn_minor_words () =
  let w0 = Gc.minor_words () in
  let r = Exp_common.run_stream ~streaming:true ~flows:20_000 () in
  let words = Gc.minor_words () -. w0 in
  check int "every flow completed" 20_000 r.Exp_common.sr_completed;
  let per_event = words /. float_of_int r.Exp_common.sr_events in
  if per_event > 5.4 then
    failf "%.3f minor words per event (%d events), bound 5.4" per_event r.Exp_common.sr_events

(* A streaming smoke run: [n] single-MTU flows on the smoke Clos at 5%
   load, a flow every 200 ns, so flows come and go for 400 us per 2,000
   of them while a few hundred are in use at once. [obs] runs with the
   environment before the first arrival. *)
let stream_smoke ~n obs =
  Exp_common.run_std
    { (Exp_common.std Exp_common.Smoke Bfc_sim.Scheme.bfc) with
      Exp_common.sp_seed = 3; sp_workload = Exp_common.Stream n; sp_load = 0.05;
      sp_stream = Some { Exp_common.alpha = 0.01; flowlog = None; progress = false };
      sp_obs = obs }

(* Once warm, a stream arrival takes a parked flow record from the sim's
   flow table and its packets carry ints, so per-flow work allocates only
   what completion and reclaim bookkeeping need. Read over the 400 us
   from 200 us in (about 2,000 flows), after the packet pool, tables and
   queues have grown to their high-water marks. It reads 13.87 words per
   flow under the dev profile and 9.87 under release, against 26.80 and
   22.80 while every arrival built a record and every sender a [Some]
   for it; the bound, 15, is the dev reading rounded up, and one 12-word
   record per flow breaks it under either profile. *)
let test_stream_arrivals_allocate_no_record () =
  let mark = Array.make 2 (0.0, 0) in
  let obs env =
    let sim = Bfc_sim.Runner.sim env in
    let read i () = mark.(i) <- (Gc.minor_words (), Bfc_sim.Runner.completed env) in
    List.iteri (fun i t -> ignore (Sim.after sim t (read i))) [ Time.us 200.0; Time.us 600.0 ]
  in
  let r = stream_smoke ~n:4_000 obs in
  check int "every flow completed" 4_000 (Bfc_sim.Runner.completed r.Exp_common.env);
  let (w0, c0), (w1, c1) = (mark.(0), mark.(1)) in
  let per_flow = (w1 -. w0) /. float_of_int (c1 - c0) in
  Printf.printf "%.2f minor words per flow over %d flows\n" per_flow (c1 - c0);
  if per_flow > 15.0 then failf "%.2f minor words per flow, bound 15" per_flow

(* The memory a streaming run holds follows the flows in use, not the
   flows gone by: the environment's reachable words, read every 50 us of
   simulated time, peak at 74,604 (74,603 under the release profile).
   The count is exact and repeats run to run, so the bound is the
   reading plus 5%: 78,300. A run that kept its 4,000 reclaimed records
   reachable would hold about 48,000 words more. *)
let test_stream_reachable_words () =
  let peak = ref 0 in
  let obs env =
    let sample () = peak := Int.max !peak (Obj.reachable_words (Obj.repr env)) in
    ignore (Sim.every (Bfc_sim.Runner.sim env) ~period:(Time.us 50.0) sample)
  in
  let r = stream_smoke ~n:4_000 obs in
  check int "every flow completed" 4_000 (Bfc_sim.Runner.completed r.Exp_common.env);
  Printf.printf "peak reachable words %d\n" !peak;
  if !peak > 78_300 then failf "peak reachable words %d, bound 78,300" !peak

let suite =
  [
    test_case "per-sim index determinism" `Quick test_index_sequences_identical_across_sims;
    test_case "ticker no event leak" `Quick test_ticker_no_event_leak;
    test_case "packet pool resets all fields" `Quick test_pool_reset_all_fields;
    test_case "packet pool double release" `Quick test_pool_double_release_rejected;
    test_case "packet footprint" `Quick test_packet_footprint;
    test_case "packet fields" `Quick test_packet_fields;
    test_case "packet flags" `Quick test_packet_flags;
    test_case "packet side tables" `Quick test_packet_side_tables;
    test_case "packet index lifecycle" `Quick test_packet_index_lifecycle;
    test_case "domain pool preserves order" `Quick test_pool_run_preserves_order;
    test_case "domain pool error in task order" `Quick test_pool_run_error_in_task_order;
    test_case "run_parallel byte-identical rows" `Slow test_run_parallel_rows_identical;
    test_case "sim differential: random schedule" `Quick test_sim_differential_random_schedule;
    test_case "bfc clos run minor words per event" `Quick test_bfc_clos_minor_words;
    test_case "wheel storage tracks live events" `Quick test_wheel_storage_tracks_live;
    test_case "typed event footprint" `Quick test_typed_event_footprint;
    test_case "stream arrival footprint" `Quick test_stream_arrival_footprint;
    test_case "bfc clos run makes no side tables" `Quick test_bfc_clos_no_side_tables;
    test_case "flow churn minor words per event" `Quick test_flow_churn_minor_words;
    test_case "stream arrivals allocate no flow record" `Quick
      test_stream_arrivals_allocate_no_record;
    test_case "stream reachable words" `Quick test_stream_reachable_words;
    test_case "flow table footprint" `Quick test_flow_table_footprint;
    test_case "flow table fresh size ignores mult" `Quick test_flow_table_fresh_ignores_mult;
    test_case "flow table forgets vacant slots" `Quick test_flow_table_forgets_vacant;
  ]
