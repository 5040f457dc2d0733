(* The observability layer: registry semantics, trace ring + exporters,
   time series, tracer wrap behaviour, engine self-profiling and the
   end-to-end telemetry wiring. Exporter output is validated with a small
   recursive-descent JSON parser (the repo deliberately has no JSON
   dependency). *)

module Registry = Bfc_obs.Registry
module Trace = Bfc_obs.Trace
module Series = Bfc_obs.Series
module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Topology = Bfc_net.Topology
module Flow = Bfc_net.Flow
module Runner = Bfc_sim.Runner
module Scheme = Bfc_sim.Scheme
module Tracer = Bfc_sim.Tracer
module Telemetry = Bfc_sim.Telemetry

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser, just enough to validate exporter output. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Bad_json (Printf.sprintf "%s at offset %d" m !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with Some (' ' | '\n' | '\t' | '\r') -> incr pos; skip_ws () | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos; Buffer.contents b
        | '\\' ->
          incr pos;
          if !pos >= n then fail "bad escape";
          (match s.[!pos] with
          | 'u' -> pos := !pos + 5 (* \uXXXX; decoded value irrelevant here *)
          | c -> Buffer.add_char b c; incr pos);
          go ()
        | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ()
  in
  let lit w v =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let number () =
    let start = !pos in
    let numc = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
    while !pos < n && numc s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (parse_string ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else
      let rec fields acc =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos; fields ((k, v) :: acc)
        | Some '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
        | _ -> fail "bad object"
      in
      fields []
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      Arr []
    end
    else
      let rec elems acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos; elems (v :: acc)
        | Some ']' -> incr pos; Arr (List.rev (v :: acc))
        | _ -> fail "bad array"
      in
      elems []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing data";
  v

let field name = function
  | Obj kvs -> (
    match List.assoc_opt name kvs with
    | Some v -> v
    | None -> Alcotest.failf "missing field %S" name)
  | _ -> Alcotest.failf "not an object (looking for %S)" name

let num = function Num f -> f | _ -> Alcotest.fail "not a number"

let str = function Str s -> s | _ -> Alcotest.fail "not a string"

let arr = function Arr l -> l | _ -> Alcotest.fail "not an array"

let with_temp_file f =
  let path = Filename.temp_file "bfc_obs_test" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      f oc;
      close_out oc;
      let ic = open_in path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      s)

(* Chrome trace invariants: parses, has events, and per (pid, tid) track
   the timestamps never go backwards. Returns the non-metadata events. *)
let validate_chrome s =
  let evs = arr (field "traceEvents" (parse_json s)) in
  let last = Hashtbl.create 16 in
  let data =
    List.filter
      (fun e ->
        match str (field "ph" e) with
        | "M" -> false
        | _ ->
          let k = (int_of_float (num (field "pid" e)), int_of_float (num (field "tid" e))) in
          let ts = num (field "ts" e) in
          (match Hashtbl.find_opt last k with
          | Some prev ->
            if ts < prev then
              Alcotest.failf "track (%d,%d): ts %.3f after %.3f" (fst k) (snd k) ts prev
          | None -> ());
          Hashtbl.replace last k ts;
          true)
      evs
  in
  checkb "trace has events" true (data <> []);
  data

(* ------------------------------------------------------------------ *)
(* Registry *)

(* The exported counters, as (name, value) in export order. *)
let counters json =
  match field "counters" (parse_json json) with
  | Obj kvs -> List.map (fun (k, v) -> (k, int_of_float (num v))) kvs
  | _ -> Alcotest.fail "counters is not an object"

let test_counter_reuse () =
  let r = Registry.create () in
  let a = Registry.counter r "pkts" in
  let b = Registry.counter r "pkts" in
  Registry.incr r a;
  Registry.add r b 4;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "one shared entry" [ ("pkts", 5) ]
    (counters (Registry.to_json r))

let test_gauge_order () =
  let r = Registry.create () in
  Registry.gauge r "b_second" (fun () -> 2.0);
  Registry.gauge r "a_first" (fun () -> 1.0);
  Registry.gauge r "c_third" (fun () -> 3.0);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 0.0)))
    "registration order, not name order"
    [ ("b_second", 2.0); ("a_first", 1.0); ("c_third", 3.0) ]
    (List.map (fun (name, f) -> (name, f ())) (Registry.gauges r))

let test_registry_json () =
  let r = Registry.create () in
  let c = Registry.counter r "drops" in
  Registry.add r c 7;
  Registry.gauge r "depth" (fun () -> 42.5);
  let j = parse_json (Registry.to_json r) in
  checki "counter value" 7 (int_of_float (num (field "drops" (field "counters" j))));
  check (Alcotest.float 1e-9) "gauge value" 42.5 (num (field "depth" (field "gauges" j)))

(* ------------------------------------------------------------------ *)
(* Trace ring + exporters *)

let test_trace_ring_wrap () =
  let t = Trace.create ~capacity:4 () in
  let ev = Trace.intern t "ev" in
  for i = 0 to 9 do
    Trace.instant t ~ts:(i * 10) ~name:ev ~pid:0 ~tid:0 ~a:i ()
  done;
  checki "buffered" 4 (Trace.length t);
  checki "recorded counts overwritten" 10 (Trace.recorded t);
  let seen = ref [] in
  Trace.iter t (fun ~ts ~dur:_ ~name:_ ~pid:_ ~tid:_ ~a:_ ~b:_ -> seen := ts :: !seen);
  check (Alcotest.list Alcotest.int) "oldest-first after wrap" [ 60; 70; 80; 90 ]
    (List.rev !seen)

let test_chrome_export () =
  let t = Trace.create () in
  let span = Trace.intern t ~akey:"flow" "queued" in
  let mark = Trace.intern t ~akey:"q" "pause" in
  Trace.instant t ~ts:100 ~name:mark ~pid:1 ~tid:2 ~a:3 ();
  (* recorded later but starting earlier: the exporter must sort *)
  Trace.complete t ~ts:50 ~dur:200 ~name:span ~pid:1 ~tid:2 ~a:9 ();
  Trace.instant t ~ts:400 ~name:mark ~pid:2 ~tid:0 ();
  let s = with_temp_file (fun oc ->
      Trace.to_chrome ~process_name:(fun ~pid -> Some (Printf.sprintf "node %d" pid)) t oc)
  in
  let data = validate_chrome s in
  checki "all records exported" 3 (List.length data);
  (* args carry the interned per-name keys *)
  let first = List.hd data in
  check (Alcotest.float 1e-9) "sorted: span first" 0.05 (num (field "ts" first));
  checki "span arg key" 9 (int_of_float (num (field "flow" (field "args" first))))

let test_jsonl_export () =
  let t = Trace.create () in
  let ev = Trace.intern t ~akey:"x" ~bkey:"y" "e" in
  Trace.instant t ~ts:1 ~name:ev ~pid:0 ~tid:0 ~a:1 ~b:2 ();
  Trace.instant t ~ts:2 ~name:ev ~pid:0 ~tid:1 ();
  let s = with_temp_file (fun oc -> Trace.to_jsonl t oc) in
  let lines = String.split_on_char '\n' (String.trim s) in
  checki "one line per record" 2 (List.length lines);
  List.iter
    (fun line ->
      let j = parse_json line in
      ignore (num (field "ts" j));
      check Alcotest.string "name" "e" (str (field "name" j)))
    lines;
  let j0 = parse_json (List.hd lines) in
  checki "a key" 1 (int_of_float (num (field "x" (field "args" j0))));
  checki "b key" 2 (int_of_float (num (field "y" (field "args" j0))))

(* ------------------------------------------------------------------ *)
(* Series *)

let test_series_columns () =
  let r = Registry.create () in
  let depth = ref 0.0 in
  Registry.gauge r "z_depth" (fun () -> !depth);
  Registry.gauge r "a_flows" (fun () -> 2.0 *. !depth);
  let s = Series.create r in
  (* a gauge registered after create is not a column *)
  Registry.gauge r "late" (fun () -> 99.0);
  depth := 3.0;
  Series.sample s ~now:1000;
  depth := 5.5;
  Series.sample s ~now:2000;
  checki "two samples" 2 (Series.n_samples s);
  let csv = with_temp_file (fun oc -> Series.to_csv s oc) in
  check
    (Alcotest.list Alcotest.string)
    "stable column order, one row per sample"
    [ "t_ns,z_depth,a_flows"; "1000,3,6"; "2000,5.5,11" ]
    (String.split_on_char '\n' (String.trim csv))

(* ------------------------------------------------------------------ *)
(* Tracer ring wrap (regression: events stay oldest-first, observed keeps
   counting past the ring) *)

let small_env () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  (sim, st, Runner.setup ~topo:st.Topology.s ~scheme:Scheme.bfc ~params:Runner.default_params)

let test_tracer_wrap () =
  let sim, _st, env = small_env () in
  let cap = 8 in
  let extra = 5 in
  let tr = Tracer.attach env ~capacity:cap in
  for i = 0 to cap + extra - 1 do
    ignore
      (Sim.at sim (Time.ns ((i + 1) * 100)) (fun () ->
           Bfc_engine.Tap.emit (Sim.tap sim) Bfc_engine.Tap.Link_down ~node:0 i 0))
  done;
  ignore (Sim.run sim ~until:(Time.us 10.0));
  checki "observed counts beyond the ring" (cap + extra) (Trace.recorded (Tracer.trace tr));
  (* the timeline's lines: "<at>us  node 0    LINK-   gid=<i>" *)
  let evs =
    List.filter_map
      (fun line ->
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | [ at; "node"; "0"; "LINK-"; gid ] ->
          Some (Scanf.sscanf at "%fus" Fun.id, Scanf.sscanf gid "gid=%d" Fun.id)
        | _ -> None)
      (String.split_on_char '\n' (Tracer.render ~limit:max_int tr))
  in
  checki "ring keeps capacity" cap (List.length evs);
  let ats = List.map fst evs in
  checkb "chronological" true (List.sort compare ats = ats);
  (* the survivors are exactly the newest [cap] events *)
  let gids = List.map snd evs in
  check (Alcotest.list Alcotest.int) "oldest fell off" (List.init cap (fun i -> extra + i)) gids

(* ------------------------------------------------------------------ *)
(* Engine self-profile *)

let test_engine_profile () =
  let sim = Sim.create () in
  let ran = ref 0 in
  for i = 1 to 5 do
    ignore (Sim.at sim (Time.ns (i * 10)) (fun () -> incr ran))
  done;
  let ticks = ref 0 in
  let tk =
    Sim.every sim ~period:(Time.ns 100) (fun () -> incr ticks)
  in
  ignore tk;
  ignore (Sim.run sim ~until:(Time.ns 1000));
  let p = Sim.profile sim in
  checki "one-shot executions" 5 p.Sim.p_one_shot;
  checkb "ticker executions" true (p.Sim.p_ticker >= 5);
  checki "classes sum to executed" p.Sim.p_executed
    (p.Sim.p_one_shot + p.Sim.p_reusable + p.Sim.p_ticker);
  checki "matches executed_events" (Sim.executed_events sim) p.Sim.p_executed;
  checkb "heap high-water seen" true (p.Sim.p_heap_hwm >= 1);
  checkb "capacity bounds hwm" true (p.Sim.p_heap_capacity >= p.Sim.p_heap_hwm)

(* ------------------------------------------------------------------ *)
(* Telemetry end-to-end: a small incast with the full subsystem attached *)

let test_telemetry_end_to_end () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:4 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let env = Runner.setup ~topo:st.Topology.s ~scheme:Scheme.bfc ~params:Runner.default_params in
  let tel = Telemetry.attach ~trace_capacity:0 ~series_period:(Time.us 5.0) env in
  let flows =
    List.init 4 (fun i ->
        Flow.make ~id:i ~src:st.Topology.st_senders.(i) ~dst:st.Topology.st_receiver ~size:64_000
          ~arrival:(Time.us (0.1 *. float_of_int i))
          ~is_incast:true ())
  in
  Runner.inject env flows;
  Runner.run env ~until:(Time.us 300.0);
  Runner.drain env ~budget:(Time.ms 5.0);
  checki "all flows done" 4 (Runner.completed env);
  let counters = counters (Telemetry.counters_json tel) in
  let v name = match List.assoc_opt name counters with Some x -> x | None -> -1 in
  checkb "enqueues counted" true (v "sw_enqueues" > 0);
  checki "dequeues + drops = enqueues" (v "sw_enqueues") (v "sw_dequeues" + v "sw_drops");
  checkb "port tx counted" true (v "port_tx_packets" > 0);
  checkb "pauses paired" true (v "queue_pauses" >= v "queue_resumes");
  (* the Chrome export is valid and per-track monotone *)
  let s = with_temp_file (fun oc -> Telemetry.write_trace tel oc) in
  let data = validate_chrome s in
  checkb "queued spans present" true
    (List.exists (fun e -> str (field "name" e) = "queued") data);
  (* the series sampled and leads with the time column *)
  checkb "series sampled" true (Series.n_samples (Telemetry.series tel) > 0);
  let csv = with_temp_file (fun oc -> Telemetry.write_series tel oc) in
  checkb "time column first" true (String.starts_with ~prefix:"t_ns," csv);
  (* the engine-profile JSON parses *)
  let prof = parse_json (Telemetry.engine_profile_json env) in
  checkb "engine executed events" true (num (field "executed" prof) > 0.0);
  (* traffic ran, so typed events (deliveries, tx wakeups) must appear *)
  checkb "typed events counted" true (num (field "typed" prof) > 0.0)

(* ------------------------------------------------------------------ *)
(* Stats: NaN-proof sort in Sample.sorted *)

let test_sample_nan_sort () =
  let module Sample = Bfc_util.Stats.Sample in
  let s = Sample.create () in
  List.iter (Sample.add s) [ 3.0; Float.nan; 1.0; 2.0 ];
  let sorted = Sample.sorted s in
  checki "all samples kept" 4 (Array.length sorted);
  (* Float.compare totally orders NaN below everything: the finite suffix
     stays sorted instead of being scrambled *)
  checkb "nan first" true (Float.is_nan sorted.(0));
  check (Alcotest.list (Alcotest.float 1e-9)) "finite suffix ordered" [ 1.0; 2.0; 3.0 ]
    (Array.to_list (Array.sub sorted 1 3));
  check (Alcotest.float 1e-9) "max unaffected" 3.0 (Sample.max s)

let suite =
  [
    Alcotest.test_case "registry: counter handle reuse" `Quick test_counter_reuse;
    Alcotest.test_case "registry: gauge registration order" `Quick test_gauge_order;
    Alcotest.test_case "registry: JSON export parses" `Quick test_registry_json;
    Alcotest.test_case "trace: ring wrap keeps oldest-first" `Quick test_trace_ring_wrap;
    Alcotest.test_case "trace: chrome export valid + monotone" `Quick test_chrome_export;
    Alcotest.test_case "trace: jsonl export" `Quick test_jsonl_export;
    Alcotest.test_case "series: stable columns + csv" `Quick test_series_columns;
    Alcotest.test_case "tracer: ring wrap regression" `Quick test_tracer_wrap;
    Alcotest.test_case "engine: self-profile counters" `Quick test_engine_profile;
    Alcotest.test_case "telemetry: end-to-end star run" `Quick test_telemetry_end_to_end;
    Alcotest.test_case "stats: NaN-proof Sample.sorted" `Quick test_sample_nan_sort;
  ]
