(* Tests for the bfc-lint static checker: every rule has a firing fixture
   and a suppressed fixture, plus scope / sorted-context / control-plane /
   rendering / exit-code behaviour. *)

module Driver = Bfclint.Driver
module Diagnostic = Bfclint.Diagnostic
module Rule = Bfclint.Rule
module Dead = Bfclint.Dead

(* dune runtest runs with cwd = the stanza dir; dune exec from the root. *)
let fixture_dir = if Sys.file_exists "fixtures/lint" then "fixtures/lint" else "test/fixtures/lint"

let lib_dir = if Sys.file_exists "../lib/bfc/dataplane.ml" then "../lib" else "lib"

(* Virtual paths place fixture sources in the scope a rule needs:
   DF rules only apply to the dataplane modules, DT/RB anywhere in lib/. *)
let dataplane_path = "lib/bfc/dataplane.ml"

let lib_path = "lib/sim/fixture.ml"

(* PF rules apply to the hot scheduling modules (Driver.perf_files). *)
let perf_path = "lib/switch/switch.ml"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let lint_fixture ~virtual_path name =
  let path = Filename.concat fixture_dir name in
  match Driver.lint_source ~virtual_path ~path (read_file path) with
  | Ok findings -> findings
  | Error e -> Alcotest.failf "fixture %s failed to lint: %s" name e

let lint_inline ~virtual_path source =
  match Driver.lint_source ~virtual_path ~path:virtual_path source with
  | Ok findings -> findings
  | Error e -> Alcotest.failf "inline source failed to lint: %s" e

let rule_id (d : Diagnostic.t) = d.Diagnostic.rule.Rule.id

let fires id findings = List.exists (fun (d, sup) -> (not sup) && rule_id d = id) findings

let fires_suppressed id findings = List.exists (fun (d, sup) -> sup && rule_id d = id) findings

(* (fixture base name, rule id, scope the rule needs) *)
let cases =
  [
    ("df_list", "DF001", dataplane_path);
    ("df_while", "DF002", dataplane_path);
    ("df_rec", "DF003", dataplane_path);
    ("df_float", "DF004", dataplane_path);
    ("df_io", "DF005", dataplane_path);
    ("det_random", "DT001", lib_path);
    ("det_wallclock", "DT002", lib_path);
    ("det_unix", "DT003", lib_path);
    ("det_hashtbl", "DT004", lib_path);
    ("rob_catchall", "RB001", lib_path);
    ("rob_assert_false", "RB002", lib_path);
    ("rob_hook_write", "RB003", lib_path);
    ("pf_closure_timer", "PF001", perf_path);
    ("pf_stdlib_queue", "PF002", perf_path);
    ("pf_poly_compare", "PF003", perf_path);
  ]

let test_rule_fires () =
  List.iter
    (fun (base, id, virtual_path) ->
      let findings = lint_fixture ~virtual_path (base ^ "_pos.ml") in
      Alcotest.(check bool) (Printf.sprintf "%s fires %s" base id) true (fires id findings))
    cases

let test_rule_suppressed () =
  List.iter
    (fun (base, id, virtual_path) ->
      let findings = lint_fixture ~virtual_path (base ^ "_allow.ml") in
      Alcotest.(check bool)
        (Printf.sprintf "%s allow fixture still detects %s" base id)
        true
        (fires_suppressed id findings);
      Alcotest.(check bool)
        (Printf.sprintf "%s allow fixture has no live violation" base)
        false
        (List.exists (fun (_, sup) -> not sup) findings))
    cases

let test_sorted_fold_clean () =
  let findings = lint_fixture ~virtual_path:lib_path "det_hashtbl_sorted.ml" in
  Alcotest.(check bool) "sorted fold is not flagged" false (fires "DT004" findings);
  Alcotest.(check bool) "nor suppressed" false (fires_suppressed "DT004" findings)

let test_df_scoped_to_dataplane () =
  (* The same List call that fires on a dataplane path is fine elsewhere
     in lib/ — DF rules are scoped, not repo-wide. *)
  let findings = lint_fixture ~virtual_path:lib_path "df_list_pos.ml" in
  Alcotest.(check bool) "DF001 silent outside the dataplane" false (fires "DF001" findings)

let test_control_plane_marker () =
  let findings = lint_fixture ~virtual_path:dataplane_path "control_plane.ml" in
  let in_attach id =
    List.exists (fun (d, _) -> rule_id d = id && d.Diagnostic.line = 4) findings
  in
  Alcotest.(check bool) "no DF001 in control-plane binding" false (in_attach "DF001");
  Alcotest.(check bool) "no DF004 in control-plane binding" false (in_attach "DF004");
  Alcotest.(check bool) "unmarked binding still fires" true (fires "DF001" findings)

let test_allow_all_keyword () =
  let findings =
    lint_inline ~virtual_path:dataplane_path
      "(* bfc-lint: allow all *)\nlet f xs = List.length xs + int_of_float 1.5\n"
  in
  Alcotest.(check bool) "findings detected" true (findings <> []);
  Alcotest.(check bool) "all suppressed" true (List.for_all (fun (_, sup) -> sup) findings)

let test_seeded_list_iter_fails () =
  (* The ISSUE's acceptance check: seeding a List.iter into dataplane.ml
     must fail the lint alias. *)
  let dataplane = read_file (Filename.concat lib_dir "bfc/dataplane.ml") in
  let seeded = dataplane ^ "\nlet seeded q = List.iter ignore q\n" in
  let findings = lint_inline ~virtual_path:dataplane_path seeded in
  Alcotest.(check bool) "seeded List.iter violates" true (fires "DF001" findings)

let test_pf_scoped_and_named_handles_pass () =
  (* A closure timer outside the perf set is fine — PF rules are scoped. *)
  let findings = lint_fixture ~virtual_path:lib_path "pf_closure_timer_pos.ml" in
  Alcotest.(check bool) "PF001 silent outside the perf set" false (fires "PF001" findings);
  (* A named partial application is not a closure literal — the rare
     fallback arms in switch.ml/nic.ml arm this way and must pass. *)
  let named =
    lint_inline ~virtual_path:perf_path
      "let arm t e epoch timeout = ignore (Sim.after t.sim timeout (wd_fallback t e epoch))\n"
  in
  Alcotest.(check bool) "named fallback passes" false (fires "PF001" named);
  (* Typed posts pass, and the dataplane modules are also perf scope. *)
  let typed =
    lint_inline ~virtual_path:dataplane_path
      "let arm t timeout = Sim.post t.sim timeout ~cls:Sim.cls_switch_ctrl ~a0:0 ~a1:0\n"
  in
  Alcotest.(check bool) "typed post passes" false (fires "PF001" typed);
  let seeded =
    lint_inline ~virtual_path:dataplane_path
      "let arm t timeout = ignore (Sim.after t.sim timeout (fun () -> ignore t))\n"
  in
  Alcotest.(check bool) "dataplane closure timer violates" true (fires "PF001" seeded);
  (* PF002 is scoped the same way, and the per-hop queues are in scope. *)
  let queue_outside = lint_fixture ~virtual_path:lib_path "pf_stdlib_queue_pos.ml" in
  Alcotest.(check bool) "PF002 silent outside the perf set" false (fires "PF002" queue_outside);
  let seeded_fifo =
    lint_inline ~virtual_path:"lib/switch/fifo.ml" "let push t pkt = Queue.add pkt t.q\n"
  in
  Alcotest.(check bool) "Queue in fifo.ml violates" true (fires "PF002" seeded_fifo);
  (* PF003 too: polymorphic compares are fine off the hot path, and the
     engine's own modules are in scope; monomorphic ones always pass. *)
  let poly_outside = lint_fixture ~virtual_path:lib_path "pf_poly_compare_pos.ml" in
  Alcotest.(check bool) "PF003 silent outside the perf set" false (fires "PF003" poly_outside);
  let seeded_time =
    lint_inline ~virtual_path:"lib/engine/time.ml" "let tx_time ns = max 1 ns\n"
  in
  Alcotest.(check bool) "max in time.ml violates" true (fires "PF003" seeded_time);
  let mono =
    lint_inline ~virtual_path:"lib/util/wheel.ml"
      "let f a b = Int.max a (Int.min b (Int.compare a b))\n"
  in
  Alcotest.(check bool) "Int.max/min/compare pass" false (fires "PF003" mono)

let test_hook_writes_scoped () =
  (* The switch programs write hook fields; device modules attach the
     node handler in [create] and nowhere else. *)
  let program =
    lint_inline ~virtual_path:"lib/transport/xpass_switch.ml"
      "let attach sw f = (Switch.hooks sw).Switch.admit <- f\n"
  in
  Alcotest.(check bool) "program module may write hooks" false (fires "RB003" program);
  let create =
    lint_inline ~virtual_path:"lib/transport/host.ml"
      "let create node f = node.Node.handler <- f\n"
  in
  Alcotest.(check bool) "device create may set the handler" false (fires "RB003" create);
  let elsewhere =
    lint_inline ~virtual_path:"lib/transport/host.ml"
      "let rewire node f = node.Node.handler <- f\n"
  in
  Alcotest.(check bool) "handler outside create violates" true (fires "RB003" elsewhere);
  let unqualified =
    lint_inline ~virtual_path:"lib/switch/switch.ml" "let wire t f = t.hk.on_enqueue <- f\n"
  in
  Alcotest.(check bool) "switch.ml's own hook write violates" true (fires "RB003" unqualified);
  let other_record =
    lint_inline ~virtual_path:"lib/transport/nic.ml" "let set_on_dequeue t f = t.on_dequeue <- f\n"
  in
  Alcotest.(check bool) "same-named field of another record passes" false
    (fires "RB003" other_record)

let test_seeded_random_fails () =
  let seeded = "let jitter () = Random.float 1.0\n" in
  let findings = lint_inline ~virtual_path:"lib/sim/runner.ml" seeded in
  Alcotest.(check bool) "seeded Random.float violates" true (fires "DT001" findings)

let test_repo_is_clean () =
  let report = Driver.lint_paths [ lib_dir ] in
  Alcotest.(check bool) "found the sources" true (report.Driver.files > 0);
  Alcotest.(check (list string)) "no parse failures" [] (List.map fst report.Driver.failures);
  Alcotest.(check (list string)) "no violations" []
    (List.map Diagnostic.to_human (Driver.violations report));
  Alcotest.(check int) "exit 0" 0 (Driver.exit_code report)

(* A stale scan-set entry would silently lint nothing. *)
let test_scan_sets_exist () =
  let root = Filename.dirname lib_dir in
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists (Filename.concat root path)))
    (Driver.dataplane_files @ Driver.perf_files @ Driver.program_files @ Driver.device_files)

let test_exit_codes () =
  let finding =
    match lint_inline ~virtual_path:lib_path "let r () = Random.int 3\n" with
    | [ (d, false) ] -> d
    | _ -> Alcotest.fail "expected exactly one live finding"
  in
  let report findings failures = { Driver.files = 1; findings; failures; dc001_error = None } in
  let clean = report [] [] in
  let dirty = report [ (finding, false) ] [] in
  let only_suppressed = report [ (finding, true) ] [] in
  let broken = report [] [ ("x.ml", "boom") ] in
  Alcotest.(check int) "clean -> 0" 0 (Driver.exit_code clean);
  Alcotest.(check int) "violations -> 1" 1 (Driver.exit_code dirty);
  Alcotest.(check int) "suppressed only -> 0" 0 (Driver.exit_code only_suppressed);
  Alcotest.(check int) "failures -> 2" 2 (Driver.exit_code broken)

let contains s needle =
  let n = String.length needle in
  let rec scan i = i + n <= String.length s && (String.sub s i n = needle || scan (i + 1)) in
  scan 0

(* A dead-code pass that cannot run (here: a build root with no compiled
   units) is one report line for DC001 and DC002, not a parse failure, and
   still fails the run. *)
let test_dc001_error_not_parse_failure () =
  let root = Filename.temp_dir "bfc_lint_empty" "" in
  let report = Driver.lint_paths ~build:root [] in
  Sys.rmdir root;
  Alcotest.(check int) "no parse failures" 0 (List.length report.Driver.failures);
  let reason =
    match report.Driver.dc001_error with
    | Some e -> e
    | None -> Alcotest.fail "DC001 ran on a root with no compiled units"
  in
  Alcotest.(check bool) "the reason names the missing interfaces" true
    (contains reason "no compiled lib/ interfaces");
  Alcotest.(check int) "exit 2" 2 (Driver.exit_code report);
  let human = Driver.render_human report in
  Alcotest.(check bool) "human: one DC001/DC002 line" true
    (contains human ("DC001/DC002 did not run: " ^ reason ^ "\n"));
  Alcotest.(check bool) "human: no parse failure" false (contains human "failed to parse");
  Alcotest.(check bool) "json: the DC001/DC002 line" true
    (contains (Driver.render_json report) "\"dc001_error\":\"DC001/DC002 did not run: ")

let test_parse_failure () =
  match Driver.lint_source ~path:"lib/broken.ml" "let = (" with
  | Ok _ -> Alcotest.fail "expected a parse failure"
  | Error msg -> Alcotest.(check bool) "failure has a reason" true (String.length msg > 0)

let test_json_render () =
  let findings =
    lint_fixture ~virtual_path:dataplane_path "df_list_pos.ml"
    @ lint_fixture ~virtual_path:lib_path "det_random_allow.ml"
  in
  let report = { Driver.files = 2; findings; failures = []; dc001_error = None } in
  Alcotest.(check int) "fixture findings violate" 1 (Driver.exit_code report);
  let json = Driver.render_json report in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json mentions %s" needle) true
        (let n = String.length needle in
         let rec scan i =
           i + n <= String.length json && (String.sub json i n = needle || scan (i + 1))
         in
         scan 0))
    [ "\"violations\""; "\"suppressed\""; "\"rule\""; "\"file\""; "\"line\"" ];
  Alcotest.(check string) "escaping" "a\\\"b\\\\c\\n" (Diagnostic.json_escape "a\"b\\c\n")

(* Suppression tokens name a rule by id (any case), by kebab name or as
   "all". *)
let test_rule_lookup () =
  let names key = List.filter (fun r -> Rule.matches r key) Rule.all in
  let ids key = List.map (fun r -> r.Rule.id) (names key) in
  Alcotest.(check (list string)) "by id" [ "DF001" ] (ids "DF001");
  Alcotest.(check (list string)) "id in lower case" [ "DF001" ] (ids "df001");
  Alcotest.(check (list string)) "by name" [ "DT001" ] (ids "det-random");
  Alcotest.(check (list string)) "pf by name" [ "PF001" ] (ids "pf-closure-timer");
  Alcotest.(check (list string)) "pf002 by name" [ "PF002" ] (ids "pf-stdlib-queue");
  Alcotest.(check (list string)) "pf003 by name" [ "PF003" ] (ids "pf-poly-compare");
  Alcotest.(check (list string)) "dc001 by name" [ "DC001" ] (ids "dc-dead-export");
  Alcotest.(check (list string)) "dc002 by name" [ "DC002" ] (ids "dc-unused-member");
  Alcotest.(check (list string)) "unknown" [] (ids "nope");
  Alcotest.(check int) "all" (List.length Rule.all) (List.length (names "all"));
  Alcotest.(check int) "seventeen rules" 17 (List.length Rule.all)

(* ------------------------------ DC001 ------------------------------ *)

(* The build root DC001 reads: dune runs the suite from _build/default/test. *)
let build_root = if Sys.file_exists "../lib/dune" then ".." else "_build/default"

let objs lib = Printf.sprintf "%s/lib/%s/.bfc_%s.objs/byte" build_root lib lib

let dead_exports ?callers () =
  match Dead.run ?callers build_root with
  | Ok findings -> findings
  | Error e -> Alcotest.failf "DC001 could not run: %s" e

(* Is [name] (["Unit.value"]) among the findings? *)
let reported name findings =
  let prefix = name ^ " " in
  List.exists
    (fun (d, _) ->
      let m = d.Diagnostic.message in
      String.length m > String.length prefix && String.sub m 0 (String.length prefix) = prefix)
    findings

let test_dc_repo_clean () =
  let findings = dead_exports () in
  Alcotest.(check (list string)) "no unsuppressed dead export" []
    (List.filter_map (fun (d, sup) -> if sup then None else Some (Diagnostic.to_human d)) findings);
  (* Each of these is used inside its own unit only, and a unit's own uses
     do not count. The .ml and .mli number their uids apart, so some of
     those uses carry the same uid as another export of the .mli. *)
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " reported") true (reported name findings))
    [
      "Ascii_table.render"; "Threshold.bytes"; "Threshold.table"; "Stats.Sample.sorted"; "Rng.bits";
      "Rng.normal";
    ]

(* Type [src] against the compiled interfaces of lib/util, lib/engine and
   lib/net, and return the Rng and Packet uids it references. *)
let referenced src =
  Clflags.include_dirs := [ objs "util"; objs "engine"; objs "net" ];
  Compmisc.init_path ();
  Env.set_unit_name "Dc001_probe";
  let env = Compmisc.initial_env () in
  let tstr, _, _, _, _ = Typemod.type_structure env (Parse.implementation (Lexing.from_string src)) in
  List.sort_uniq compare
    (List.filter_map
       (fun (uid : Shape.Uid.t) ->
         match uid with
         | Item { comp_unit = ("Bfc_util__Rng" | "Bfc_net__Packet") as u; id } -> Some (u, id)
         | _ -> None)
       (Dead.references tstr))

(* The uid an interface gives one of its values, read from the .cmti. *)
let declared ~lib ~unit path =
  let cmt = Cmt_format.read_cmt (Printf.sprintf "%s/%s.cmti" (objs lib) unit) in
  let rec find items = function
    | [ name ] ->
      List.find_map
        (fun (it : Typedtree.signature_item) ->
          match it.sig_desc with
          | Tsig_value vd when vd.val_name.txt = name -> Some vd.val_val.Types.val_uid
          | _ -> None)
        items
    | m :: rest ->
      List.find_map
        (fun (it : Typedtree.signature_item) ->
          match it.sig_desc with
          | Tsig_module { md_name = { txt = Some n; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ }
            when n = m ->
            find s.sig_items rest
          | _ -> None)
        items
    | [] -> None
  in
  match cmt.cmt_annots with
  | Cmt_format.Interface s -> (
    match find s.sig_items path with
    | Some (Shape.Uid.Item { comp_unit; id }) -> (comp_unit, id)
    | _ -> Alcotest.failf "%s has no value %s" unit (String.concat "." path))
  | _ -> Alcotest.failf "%s.cmti is not an interface" unit

(* Every way of writing a name reaches the export's declaration: the
   wrapped-library path, dune's mangled unit, an [open], a module alias
   and a submodule path. *)
let test_dc_name_resolution () =
  let rng_int = declared ~lib:"util" ~unit:"bfc_util__Rng" [ "int" ] in
  List.iter
    (fun src -> Alcotest.(check (list (pair string int))) src [ rng_int ] (referenced src))
    [
      "let f = Bfc_util.Rng.int";
      "let f = Bfc_util__Rng.int";
      "open Bfc_util\nlet f = Rng.int";
      "let f = let open Bfc_util.Rng in int";
      "module R = Bfc_util.Rng\nlet f = R.int";
    ];
  let acquire = declared ~lib:"net" ~unit:"bfc_net__Packet" [ "Pool"; "acquire" ] in
  List.iter
    (fun src -> Alcotest.(check (list (pair string int))) src [ acquire ] (referenced src))
    [
      "let f = Bfc_net.Packet.Pool.acquire";
      "let f = Bfc_net__Packet.Pool.acquire";
      "open Bfc_net\nlet f = Packet.Pool.acquire";
      "let f = let open Bfc_net.Packet in Pool.acquire";
      "module P = Bfc_net.Packet.Pool\nlet f = P.acquire";
    ]

(* perfbench/ is a caller: an export or a field only the benchmark uses is
   alive, and becomes a finding once perfbench's units are left out. *)
let test_dc_perfbench_caller () =
  let only_perfbench = [ "Port.set_on_tx"; "Exp_common.stream_report.sr_sketches" ] in
  let all = dead_exports () in
  let without = dead_exports ~callers:[ "lib"; "bin"; "examples" ] () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " alive") false (reported name all);
      Alcotest.(check bool) (name ^ " dead without perfbench") true (reported name without))
    only_perfbench

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* A unit compiled from another source, or against an interface that has
   been rebuilt since, would report findings from uids that name the wrong
   declarations, so DC001 refuses it. The check runs on a scratch
   workspace laid out as dune lays one out: Rng's compiled units under
   <ws>/_build/default, its sources under <ws>. *)
let test_dc_stale_unit () =
  let ws = Filename.temp_dir "dc001" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf ws)
    (fun () ->
      let root = Filename.concat ws "_build/default" in
      let objs_dir = "lib/util/.bfc_util.objs/byte" in
      mkdir_p (Filename.concat root objs_dir);
      mkdir_p (Filename.concat ws "lib/util");
      let copy_unit ext =
        let rel = Filename.concat objs_dir ("bfc_util__Rng" ^ ext) in
        write_file (Filename.concat root rel) (read_file (Filename.concat build_root rel))
      in
      let source name = read_file (Filename.concat build_root ("lib/util/" ^ name)) in
      (* the build root holds a copy of each source, as dune's does *)
      let put_source name s =
        write_file (Filename.concat ws ("lib/util/" ^ name)) s;
        write_file (Filename.concat root ("lib/util/" ^ name)) s
      in
      copy_unit ".cmt";
      copy_unit ".cmti";
      put_source "rng.ml" (source "rng.ml");
      put_source "rng.mli" (source "rng.mli");
      let stale () =
        match Dead.run ~callers:[] root with
        | Ok _ -> None
        | Error e -> Some e
      in
      Alcotest.(check (option string)) "matching sources" None (stale ());
      (* the workspace source moves on while the build does not *)
      write_file (Filename.concat ws "lib/util/rng.mli") (source "rng.mli" ^ "\n(* edited *)\n");
      Alcotest.(check (option string))
        "edited source"
        (Some
           "compiled unit Bfc_util__Rng is stale (lib/util/rng.mli changed since it was \
            compiled); rebuild with dune build @check")
        (stale ());
      put_source "rng.mli" (source "rng.mli");
      (* Rng's interface is rebuilt; rng.ml's unit still imports the old one *)
      let cmti = Filename.concat root (Filename.concat objs_dir "bfc_util__Rng.cmti") in
      let cmt = Cmt_format.read_cmt cmti in
      Out_channel.with_open_bin cmti (fun oc ->
          Out_channel.output_string oc Config.cmt_magic_number;
          Marshal.to_channel oc
            { cmt with Cmt_format.cmt_interface_digest = Some (Digest.string "rebuilt") }
            []);
      Alcotest.(check (option string))
        "outdated import"
        (Some
           "compiled unit Bfc_util__Rng is stale (compiled against an older Bfc_util__Rng); \
            rebuild with dune build @check")
        (stale ()))

(* ------------------------------ DC002 ------------------------------ *)

(* Compile [units] ((path, source) pairs, each .mli before its .ml, a unit
   before its callers) the way dune does with -bin-annot, into a scratch
   workspace laid out as dune lays one out: the sources under <ws>, the
   compiled units and a copy of each source under the build root
   <ws>/_build/default. Every unit sees the interfaces compiled under
   lib/. Returns [f ws root]. The pass needs a compiled lib/ interface,
   so each scratch build has one. *)
let with_units units f =
  let ws = Filename.temp_dir "dc002" "" in
  let root = Filename.concat ws "_build/default" in
  let cwd = Sys.getcwd () and includes = !Clflags.include_dirs in
  let bin_annot = !Clflags.binary_annotations and warnings = Warnings.backup () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Clflags.include_dirs := includes;
      Clflags.binary_annotations := bin_annot;
      Warnings.restore warnings;
      rm_rf ws)
    (fun () ->
      List.iter
        (fun (path, src) ->
          mkdir_p (Filename.dirname (Filename.concat root path));
          mkdir_p (Filename.dirname (Filename.concat ws path));
          write_file (Filename.concat ws path) src;
          write_file (Filename.concat root path) src)
        units;
      Sys.chdir root;
      Clflags.include_dirs := [ "lib" ];
      Clflags.binary_annotations := true;
      ignore (Warnings.parse_options false "-a");
      List.iter
        (fun (path, _) ->
          Env.reset_cache ();
          Compile_common.with_info ~native:false ~tool_name:"ocamlc" ~source_file:path
            ~output_prefix:(Filename.remove_extension path) ~dump_ext:"cmo" (fun info ->
              if Filename.check_suffix path ".mli" then Compile_common.interface info
              else Compile_common.implementation info ~backend:(fun _ _ -> ())))
        units;
      Sys.chdir cwd;
      f ws root)

let dead_members ?callers units =
  with_units units (fun _ root ->
      match Dead.run ?callers root with
      | Ok findings ->
        List.filter_map
          (fun (d, sup) ->
            if rule_id d = "DC002" then
              Some (List.hd (String.split_on_char ' ' d.Diagnostic.message), sup)
            else None)
          findings
      | Error e -> Alcotest.failf "the dead-code pass could not run: %s" e)

let members = Alcotest.(list (pair string bool))

(* a field that is only ever written: set by a record expression and by
   [<-], read by nothing *)
let test_dc2_write_only () =
  Alcotest.check members "the written field only" [ ("Cell.t.w", false) ]
    (dead_members
       [
         ("lib/cell.mli", "type t = { mutable w : int; r : int }\nval make : unit -> t\nval poke : t -> unit\n");
         ( "lib/cell.ml",
           "type t = { mutable w : int; r : int }\nlet make () = { w = 0; r = 1 }\nlet poke t = t.w <- t.r\n" );
         ("bin/main.ml", "let () = Cell.poke (Cell.make ())\n");
       ])

(* A field read only on the right-hand side of an assignment to itself
   ([t.n <- t.n + 1]) is not read; a field read there for another field,
   or read elsewhere, is. *)
let test_dc2_self_increment () =
  let t = "type t = { mutable n : int; mutable m : int; k : int }\n" in
  Alcotest.check members "the self-incremented field only" [ ("Cnt.t.n", false) ]
    (dead_members
       [
         ("lib/cnt.mli", t ^ "val make : unit -> t\nval bump : t -> unit\nval m : t -> int\n");
         ( "lib/cnt.ml",
           t
           ^ "let make () = { n = 0; m = 0; k = 1 }\n\
              let bump t = t.n <- t.n + t.k; t.m <- t.m + 1\n\
              let m t = t.m\n" );
         ("bin/main.ml", "let () = let c = Cnt.make () in Cnt.bump c; print_int (Cnt.m c)\n");
       ])

(* A record pattern reads the fields it names; [{ r with ... }] reads the
   fields it copies and writes the ones it sets. *)
let test_dc2_pattern_and_with () =
  Alcotest.check members "only the fields never read" [ ("Rd.p.b", false); ("Rd.q.x", false) ]
    (dead_members
       [
         ("lib/rd.mli", "type p = { a : int; b : int }\ntype q = { x : int; y : int }\nval f : p -> int\nval g : q -> q\n");
         ( "lib/rd.ml",
           "type p = { a : int; b : int }\ntype q = { x : int; y : int }\nlet f { a; _ } = a\nlet g r = { r with x = 1 }\n" );
         ("bin/main.ml", "let () = ignore (Rd.f { Rd.a = 1; b = 2 }, Rd.g { Rd.x = 1; y = 2 })\n");
       ])

(* Matching a constructor does not build it; building it in another unit
   does. *)
let test_dc2_constructors () =
  Alcotest.check members "the matched-only constructor" [ ("K.t.Matched", false) ]
    (dead_members
       [
         ("lib/k.mli", "type t = Built | Matched | Elsewhere\nval name : t -> string\nval built : t\n");
         ( "lib/k.ml",
           "type t = Built | Matched | Elsewhere\n\
            let name = function Built -> \"b\" | Matched -> \"m\" | Elsewhere -> \"e\"\n\
            let built = Built\n" );
         ("bin/main.ml", "let () = print_string (K.name K.built ^ K.name K.Elsewhere)\n");
       ])

(* A member the .mli declares is reported there, and an allow there
   covers it. *)
let test_dc2_allow () =
  let t = "type t = {\n  (* kept for a dump format; bfc-lint: allow DC002 *)\n  mutable w : int;\n  r : int;\n}\n" in
  Alcotest.check members "suppressed"
    [ ("Cell.t.w", true) ]
    (dead_members
       [
         ("lib/cell.mli", t ^ "val make : unit -> t\nval poke : t -> unit\n");
         ("lib/cell.ml", t ^ "let make () = { w = 0; r = 1 }\nlet poke t = t.w <- t.r\n");
         ("bin/main.ml", "let () = Cell.poke (Cell.make ())\n");
       ])

(* perfbench/ is a caller: a field only the benchmark reads is alive, and
   becomes a finding once perfbench's units are left out. *)
let test_dc2_perfbench_caller () =
  let units =
    [
      ("lib/prof.mli", "type t = { hits : int }\nval get : unit -> t\n");
      ("lib/prof.ml", "type t = { hits : int }\nlet get () = { hits = 3 }\n");
      ("perfbench/bench.ml", "let () = print_int (Prof.get ()).Prof.hits\n");
    ]
  in
  Alcotest.check members "alive" [] (dead_members units);
  Alcotest.check members "dead without perfbench" [ ("Prof.t.hits", false) ]
    (dead_members ~callers:[ "lib"; "bin"; "examples" ] units)

(* DC002 reads the same compiled units as DC001 and refuses a stale one. *)
let test_dc2_stale_unit () =
  with_units
    [ ("lib/cell.mli", "type t = { w : int }\n"); ("lib/cell.ml", "type t = { w : int }\n") ]
    (fun ws root ->
      write_file (Filename.concat ws "lib/cell.ml") "type t = { w : int; v : int }\n";
      Alcotest.(check (result reject string))
        "stale"
        (Error
           "compiled unit Cell is stale (lib/cell.ml changed since it was compiled); rebuild \
            with dune build @check")
        (Result.map (fun _ -> ()) (Dead.run ~callers:[] root)))

(* A clean scratch build passes; add a field that is only written and the
   pass fails on it. *)
let test_dc2_new_write_only_field_fails () =
  let build fields init =
    [
      ("lib/cell.mli", Printf.sprintf "type t = { %s }\nval make : unit -> t\nval size : t -> int\n" fields);
      ( "lib/cell.ml",
        Printf.sprintf "type t = { %s }\nlet make () = { %s }\nlet size t = t.n\n" fields init );
      ("bin/main.ml", "let () = print_int (Cell.size (Cell.make ()))\n");
    ]
  in
  let lint units =
    with_units units (fun _ root ->
        let r = Driver.lint_paths ~build:root [] in
        (Driver.exit_code r, List.map Diagnostic.to_human (Driver.violations r)))
  in
  Alcotest.check Alcotest.(pair int (list string)) "clean" (0, []) (lint (build "n : int" "n = 1"));
  Alcotest.check
    Alcotest.(pair int (list string))
    "the new field fails the pass"
    ( 1,
      [
        "lib/cell.mli:1:20: error [DC002 dc-unused-member] Cell.t.spare is a field that nothing \
         outside the tests reads";
      ] )
    (lint (build "n : int; spare : int" "n = 1; spare = 0"))

let suite =
  [
    ("every rule fires on its fixture", `Quick, test_rule_fires);
    ("every rule honours allow", `Quick, test_rule_suppressed);
    ("sorted hashtbl fold passes", `Quick, test_sorted_fold_clean);
    ("df rules scoped to dataplane", `Quick, test_df_scoped_to_dataplane);
    ("control-plane marker", `Quick, test_control_plane_marker);
    ("allow all keyword", `Quick, test_allow_all_keyword);
    ("pf scope and named handles", `Quick, test_pf_scoped_and_named_handles_pass);
    ("seeded list iter violates", `Quick, test_seeded_list_iter_fails);
    ("seeded random violates", `Quick, test_seeded_random_fails);
    ("hook writes scoped to programs and creation", `Quick, test_hook_writes_scoped);
    ("repo tree is lint-clean", `Quick, test_repo_is_clean);
    ("scan sets name existing files", `Quick, test_scan_sets_exist);
    ("exit codes", `Quick, test_exit_codes);
    ("dc001 error is not a parse failure", `Quick, test_dc001_error_not_parse_failure);
    ("parse failure reported", `Quick, test_parse_failure);
    ("json rendering", `Quick, test_json_render);
    ("rule lookup", `Quick, test_rule_lookup);
    ("dc001 repo build has no dead export", `Quick, test_dc_repo_clean);
    ("dc001 name resolution", `Quick, test_dc_name_resolution);
    ("dc001 perfbench counts as a caller", `Quick, test_dc_perfbench_caller);
    ("dc001 stale unit fails loudly", `Quick, test_dc_stale_unit);
    ("dc002 write-only field is reported", `Quick, test_dc2_write_only);
    ("dc002 record pattern and with read", `Quick, test_dc2_pattern_and_with);
    ("dc002 self-increment is not a read", `Quick, test_dc2_self_increment);
    ("dc002 matched-only constructor is reported", `Quick, test_dc2_constructors);
    ("dc002 allow suppresses", `Quick, test_dc2_allow);
    ("dc002 perfbench counts as a caller", `Quick, test_dc2_perfbench_caller);
    ("dc002 stale unit fails loudly", `Quick, test_dc2_stale_unit);
    ("dc002 new write-only field fails the pass", `Quick, test_dc2_new_write_only_field_fails);
  ]
