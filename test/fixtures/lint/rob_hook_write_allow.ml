(* Fixture: RB003 suppressed. *)
(* a test harness stubs a node with no device; bfc-lint: allow rob-hook-write *)
let sink nd = nd.Node.handler <- (fun ~in_port:_ _ -> ())
