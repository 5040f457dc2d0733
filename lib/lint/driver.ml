(* File discovery, parsing and report rendering. *)

(* Per-packet / per-event hot-path modules that get the feasibility family:
   the two BFC dataplane programs, the stress/obs hot paths (detectors and
   counters that run on every packet or pause transition) and the PDES
   inter-shard ring (crossed by every cut packet). *)
let dataplane_files =
  [
    "lib/bfc/dataplane.ml";
    "lib/bfc/credit_dataplane.ml";
    "lib/stress/detect.ml";
    "lib/obs/registry.ml";
    "lib/obs/trace.ml";
    "lib/obs/sketch.ml";
    "lib/engine/channel.ml";
  ]

(* Hot scheduling paths that get the perf family (PF rules) on top of the
   dataplane set: the engine's clock, event loop and queue, the modules
   that arm per-packet/per-pause timers (closure-free since the typed
   event table) and the per-hop queues and scheduler (array rings, no
   Stdlib Queue cells). *)
let perf_files =
  [
    "lib/engine/time.ml";
    "lib/engine/sim.ml";
    "lib/util/wheel.ml";
    "lib/net/port.ml";
    "lib/switch/fifo.ml";
    "lib/switch/sched.ml";
    "lib/switch/switch.ml";
    "lib/transport/nic.ml";
    "lib/transport/host.ml";
    "lib/transport/xpass_switch.ml";
  ]

(* RB003: the switch programs, the only writers of Switch.hooks fields,
   and the devices, whose [create] attaches a node's receive handler. *)
let program_files =
  [ "lib/bfc/dataplane.ml"; "lib/bfc/credit_dataplane.ml"; "lib/transport/xpass_switch.ml" ]

let device_files = [ "lib/switch/switch.ml"; "lib/transport/host.ml" ]

let normalize path =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  let rec strip p = if String.length p > 2 && String.sub p 0 2 = "./" then strip (String.sub p 2 (String.length p - 2)) else p in
  strip path

let has_suffix s suf =
  let n = String.length s and m = String.length suf in
  n >= m
  && String.sub s (n - m) m = suf
  && (n = m || s.[n - m - 1] = '/')

let scope_of_path path =
  let p = normalize path in
  let segments = String.split_on_char '/' p in
  let dir_segments = match List.rev segments with [] -> [] | _ :: rev_dirs -> rev_dirs in
  let dataplane = List.exists (has_suffix p) dataplane_files in
  {
    Check.dataplane;
    lib = List.mem "lib" dir_segments;
    perf = dataplane || List.exists (has_suffix p) perf_files;
    program = List.exists (has_suffix p) program_files;
    device = List.exists (has_suffix p) device_files;
  }

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Parse failures are reported per-file rather than aborting the run. *)
let parse ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  Location.input_name := path;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception Syntaxerr.Error _ ->
    Error
      (Printf.sprintf "syntax error near line %d"
         lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum)
  | exception Lexer.Error (_, loc) ->
    Error (Printf.sprintf "lexer error near line %d" loc.Location.loc_start.Lexing.pos_lnum)

(* [virtual_path] overrides scope classification and reporting; used by the
   fixture tests to lint fixture files as if they lived on a dataplane path. *)
let lint_source ?virtual_path ~path source =
  let spath = match virtual_path with Some p -> p | None -> path in
  let scope = scope_of_path spath in
  let suppress = Suppress.scan source in
  match parse ~path:spath source with
  | Ok structure -> Ok (Check.run ~path:spath ~scope suppress structure)
  | Error e -> Error e

type report = {
  files : int;
  findings : (Diagnostic.t * bool) list;  (* diagnostic, suppressed *)
  failures : (string * string) list;  (* path, reason *)
}

let violations r = List.filter_map (fun (d, sup) -> if sup then None else Some d) r.findings

let suppressed r = List.filter_map (fun (d, sup) -> if sup then Some d else None) r.findings

let rec walk path acc =
  match Sys.is_directory path with
  | exception Sys_error _ -> acc
  | true ->
    let entries = Sys.readdir path in
    Array.sort compare entries;
    Array.fold_left
      (fun acc name ->
        if name = "" || name.[0] = '.' || name = "_build" then acc
        else walk (Filename.concat path name) acc)
      acc entries
  | false -> if Filename.check_suffix path ".ml" then path :: acc else acc

let lint_paths paths =
  let files = List.rev (List.fold_left (fun acc p -> walk p acc) [] paths) in
  let findings, failures =
    List.fold_left
      (fun (fs, errs) path ->
        match read_file path with
        | exception Sys_error e -> (fs, (path, e) :: errs)
        | source -> (
          match lint_source ~path source with
          | Ok ds -> (fs @ ds, errs)
          | Error e -> (fs, (path, e) :: errs)))
      ([], []) files
  in
  {
    files = List.length files;
    findings = List.sort (fun (a, _) (b, _) -> Diagnostic.compare a b) findings;
    failures = List.rev failures;
  }

let exit_code r = if r.failures <> [] then 2 else if violations r <> [] then 1 else 0

let render_human ?(show_suppressed = false) r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun d ->
      Buffer.add_string buf (Diagnostic.to_human d);
      Buffer.add_char buf '\n')
    (violations r);
  if show_suppressed then
    List.iter
      (fun d ->
        Buffer.add_string buf (Diagnostic.to_human d);
        Buffer.add_string buf " (suppressed)\n")
      (suppressed r);
  List.iter
    (fun (path, reason) -> Buffer.add_string buf (Printf.sprintf "%s: cannot lint: %s\n" path reason))
    r.failures;
  Buffer.add_string buf
    (Printf.sprintf "bfc-lint: %d file%s checked, %d violation%s, %d suppressed%s\n" r.files
       (if r.files = 1 then "" else "s")
       (List.length (violations r))
       (if List.length (violations r) = 1 then "" else "s")
       (List.length (suppressed r))
       (if r.failures = [] then ""
        else Printf.sprintf ", %d file(s) failed to parse" (List.length r.failures)));
  Buffer.contents buf

let render_json r =
  let arr to_j xs = "[" ^ String.concat "," (List.map to_j xs) ^ "]" in
  Printf.sprintf
    "{\"files\":%d,\"violations\":%s,\"suppressed\":%s,\"failures\":%s}\n" r.files
    (arr Diagnostic.to_json (violations r))
    (arr Diagnostic.to_json (suppressed r))
    (arr
       (fun (p, e) ->
         Printf.sprintf "{\"file\":\"%s\",\"error\":\"%s\"}" (Diagnostic.json_escape p)
           (Diagnostic.json_escape e))
       r.failures)

let render_rules () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-6s %-18s %-12s %-8s %s\n" r.Rule.id r.Rule.name
           (Rule.family_to_string r.Rule.family)
           (Rule.severity_to_string r.Rule.severity)
           r.Rule.doc))
    Rule.all;
  Buffer.contents buf
