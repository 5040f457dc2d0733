(* Tests for the bfc-lint static checker: every rule has a firing fixture
   and a suppressed fixture, plus scope / sorted-context / control-plane /
   rendering / exit-code behaviour. *)

module Driver = Bfclint.Driver
module Diagnostic = Bfclint.Diagnostic
module Rule = Bfclint.Rule

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
  let clean = { Driver.files = 1; findings = []; failures = [] } in
  let dirty = { Driver.files = 1; findings = [ (finding, false) ]; failures = [] } in
  let only_suppressed = { Driver.files = 1; findings = [ (finding, true) ]; failures = [] } in
  let broken = { Driver.files = 1; findings = []; failures = [ ("x.ml", "boom") ] } in
  Alcotest.(check int) "clean -> 0" 0 (Driver.exit_code clean);
  Alcotest.(check int) "violations -> 1" 1 (Driver.exit_code dirty);
  Alcotest.(check int) "suppressed only -> 0" 0 (Driver.exit_code only_suppressed);
  Alcotest.(check int) "failures -> 2" 2 (Driver.exit_code broken)

let test_parse_failure () =
  match Driver.lint_source ~path:"lib/broken.ml" "let = (" with
  | Ok _ -> Alcotest.fail "expected a parse failure"
  | Error msg -> Alcotest.(check bool) "failure has a reason" true (String.length msg > 0)

let test_json_render () =
  let findings =
    lint_fixture ~virtual_path:dataplane_path "df_list_pos.ml"
    @ lint_fixture ~virtual_path:lib_path "det_random_allow.ml"
  in
  let report = { Driver.files = 2; findings; failures = [] } in
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

let test_rule_lookup () =
  (match Rule.find "DF001" with
  | Some r -> Alcotest.(check string) "by id" "df-list" r.Rule.name
  | None -> Alcotest.fail "DF001 not found");
  (match Rule.find "det-random" with
  | Some r -> Alcotest.(check string) "by name" "DT001" r.Rule.id
  | None -> Alcotest.fail "det-random not found");
  (match Rule.find "pf-closure-timer" with
  | Some r -> Alcotest.(check string) "pf by name" "PF001" r.Rule.id
  | None -> Alcotest.fail "pf-closure-timer not found");
  (match Rule.find "pf-stdlib-queue" with
  | Some r -> Alcotest.(check string) "pf002 by name" "PF002" r.Rule.id
  | None -> Alcotest.fail "pf-stdlib-queue not found");
  (match Rule.find "pf-poly-compare" with
  | Some r -> Alcotest.(check string) "pf003 by name" "PF003" r.Rule.id
  | None -> Alcotest.fail "pf-poly-compare not found");
  Alcotest.(check bool) "unknown" true (Rule.find "nope" = None);
  Alcotest.(check int) "fifteen rules" 15 (List.length Rule.all)

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
    ("parse failure reported", `Quick, test_parse_failure);
    ("json rendering", `Quick, test_json_render);
    ("rule lookup", `Quick, test_rule_lookup);
  ]
