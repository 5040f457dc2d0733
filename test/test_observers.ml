(* Observer fixture: pins what every observer reports on three small
   standard runs, so moving observers between attachment mechanisms
   cannot silently change their output.

   - bfc-incast: BFC with an incast mix and a small buffer (drops),
     with Telemetry, Tracer, Auditor and Detect attached;
   - pfc-incast: DCQCN (ECN + PFC) on the same mix, so port-level PFC
     pauses reach switches and NICs, with the same four observers;
   - hpcc-pfc: lossy HPCC-PFC, whose per-drop retransmission notice
     shapes the FCT rows.

   Telemetry's exports and the Tracer timeline are recorded as digests;
   counts and summaries verbatim. Telemetry's process-level GC gauges
   depend on what else ran in the process, so they are left out. Set
   BFC_OBS_FIXGEN=1 (and optionally BFC_OBS_FIXDIR=<abs path>) to
   regenerate fixtures/obs/observers.expected. *)

module Time = Bfc_engine.Time
module Flow = Bfc_net.Flow
module Exp_common = Bfc_sim.Exp_common
module Scheme = Bfc_sim.Scheme
module Runner = Bfc_sim.Runner
module Telemetry = Bfc_sim.Telemetry
module Tracer = Bfc_sim.Tracer
module Auditor = Bfc_fault.Auditor
module Detect = Bfc_stress.Detect
module Switch = Bfc_switch.Switch

let fixture_dir = if Sys.file_exists "fixtures/obs" then "fixtures/obs" else "test/fixtures/obs"

let digest s = Digest.to_hex (Digest.string s)

let capture f =
  let path = Filename.temp_file "bfc_obs" ".out" in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Sys.remove path)
    (fun () ->
      f oc;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

(* The counters JSON has one key per line. *)
let drop_gc_lines json =
  String.split_on_char '\n' json
  |> List.filter (fun l -> not (String.starts_with ~prefix:"\"gc_" (String.trim l)))
  |> String.concat "\n"

(* Drop the CSV columns whose header names a GC gauge. *)
let drop_gc_columns csv =
  match String.split_on_char '\n' csv with
  | [] -> csv
  | header :: rows ->
    let keep =
      List.map (fun c -> not (String.starts_with ~prefix:"gc_" c)) (String.split_on_char ',' header)
    in
    let filter line =
      if line = "" then line
      else
        String.concat ","
          (List.filteri (fun i _ -> List.nth keep i) (String.split_on_char ',' line))
    in
    String.concat "\n" (List.map filter (header :: rows))

let small_buffer p = { p with Runner.buffer_bytes = 400_000 }

let setup scheme =
  {
    (Exp_common.std Exp_common.Smoke scheme) with
    Exp_common.sp_incast = Some Exp_common.default_incast;
    sp_seed = 3;
    sp_params = small_buffer;
  }

type observers = {
  tel : Telemetry.t;
  tracer : Tracer.t;
  aud : Auditor.t;
  det : Detect.t;
}

let observed_run scheme =
  let obs = ref None in
  let r =
    Exp_common.run_std_seq
      {
        (setup scheme) with
        Exp_common.sp_obs =
          (fun env ->
            let tel =
              Telemetry.attach
                ~config:
                  {
                    Telemetry.t_enabled = true;
                    t_trace = true;
                    t_trace_capacity = 0;
                    t_series_period = Some (Time.us 20.0);
                  }
                env
            in
            let tracer = Tracer.attach env ~capacity:1_000_000 in
            let aud =
              Auditor.attach ~config:{ Auditor.default_config with Auditor.fail_fast = false } env
            in
            let det = Detect.attach env in
            obs := Some { tel; tracer; aud; det });
      }
  in
  match !obs with Some o -> (r, o) | None -> Alcotest.fail "observers were never attached"

let render_observed name scheme =
  let r, o = observed_run scheme in
  let b = Buffer.create 1024 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let env = r.Exp_common.env in
  line "leg %s" name;
  line "injected %d completed %d" (Runner.injected env) (Runner.completed env);
  line "switch drops %d"
    (Array.fold_left (fun a sw -> a + Switch.drops sw) 0 (Runner.switches env));
  let jsonl = capture (Telemetry.write_jsonl o.tel) in
  line "telemetry.jsonl %s %d" (digest jsonl) (String.length jsonl);
  line "telemetry.counters %s" (digest (drop_gc_lines (Telemetry.counters_json o.tel)));
  let csv = drop_gc_columns (capture (Telemetry.write_series o.tel)) in
  line "telemetry.series %s %d" (digest csv) (String.length csv);
  line "tracer.observed %d" (Tracer.observed o.tracer);
  line "tracer.render %s" (digest (Tracer.render ~limit:max_int o.tracer));
  line "tracer.pause_balance %s"
    (String.concat " "
       (List.map (fun (n, p, q) -> Printf.sprintf "%d:%d/%d" n p q) (Tracer.pause_balance o.tracer)));
  line "auditor.checks %d violations %d" (Auditor.checks_run o.aud) (Auditor.violation_count o.aud);
  let rep = Detect.report o.det ~flows:r.Exp_common.flows in
  line "detect.summary %s" (Detect.summary rep);
  line "detect.report %s"
    (digest
       (String.concat ";"
          (List.map
             (fun s ->
               Printf.sprintf "s%d,%d,%d,%.6f" s.Detect.st_gid s.Detect.st_onset
                 s.Detect.st_duration s.Detect.st_peak_frac)
             rep.Detect.r_storms
          @ List.map
              (fun v ->
                Printf.sprintf "v%d,%.6f,%d,%d,%d" v.Detect.v_flow v.Detect.v_slowdown
                  v.Detect.v_gid v.Detect.v_queue v.Detect.v_pause_ns)
              rep.Detect.r_victims)));
  Buffer.contents b

let render_hpcc_pfc () =
  let r = Exp_common.run_std_seq (setup Scheme.hpcc_pfc) in
  let env = r.Exp_common.env in
  let b = Buffer.create 1024 in
  Printf.bprintf b "leg hpcc-pfc\n";
  Printf.bprintf b "injected %d completed %d\n" (Runner.injected env) (Runner.completed env);
  Printf.bprintf b "switch drops %d\n"
    (Array.fold_left (fun a sw -> a + Switch.drops sw) 0 (Runner.switches env));
  List.iter
    (fun row -> Printf.bprintf b "fct %s\n" (String.concat " " row))
    (Exp_common.fct_rows r);
  Printf.bprintf b "flows %s\n"
    (digest
       (String.concat ";"
          (List.map
             (fun f -> Printf.sprintf "%d,%d,%d" f.Flow.id f.Flow.delivered f.Flow.finish)
             r.Exp_common.flows)));
  Buffer.contents b

let render () =
  render_observed "bfc-incast" Scheme.bfc
  ^ render_observed "pfc-incast" Scheme.dcqcn
  ^ render_hpcc_pfc ()

let path = Filename.concat fixture_dir "observers.expected"

let test_fixture () =
  let got = render () in
  if Sys.getenv_opt "BFC_OBS_FIXGEN" = Some "1" then begin
    let dir = Option.value (Sys.getenv_opt "BFC_OBS_FIXDIR") ~default:fixture_dir in
    let oc = open_out_bin (Filename.concat dir "observers.expected") in
    output_string oc got;
    close_out oc
  end
  else begin
    let ic = open_in_bin path in
    let expected = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Alcotest.(check string) "observer outputs" expected got
  end

let suite = [ Alcotest.test_case "observer outputs byte-identical" `Slow test_fixture ]
