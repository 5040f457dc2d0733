(* Standalone entry point for the bfc-lint static-analysis pass.

   bfc_lint [--json] [--suppressed] [--rules] [paths...]   (default path: lib)

   The per-file rules read the sources under [paths]; DC001 and DC002 read
   the compiled units of the build, so build them first (dune build @check).
   `dune build @lint` does both. *)

let () =
  let json = ref false in
  let show_suppressed = ref false in
  let list_rules = ref false in
  let paths = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " Emit the report as JSON");
      ("--suppressed", Arg.Set show_suppressed, " Also print suppressed findings");
      ("--rules", Arg.Set list_rules, " List every rule and exit");
    ]
  in
  Arg.parse spec
    (fun p -> paths := p :: !paths)
    "bfc_lint [options] [paths]\nDataplane-feasibility, determinism, robustness, perf and dead-export checks.";
  if !list_rules then begin
    print_string (Bfclint.Driver.render_rules ());
    exit 0
  end;
  let paths = match List.rev !paths with [] -> [ "lib" ] | ps -> ps in
  let report = Bfclint.Driver.lint_paths ~build:(Bfclint.Driver.build_root ()) paths in
  print_string
    (if !json then Bfclint.Driver.render_json report
     else Bfclint.Driver.render_human ~show_suppressed:!show_suppressed report);
  exit (Bfclint.Driver.exit_code report)
