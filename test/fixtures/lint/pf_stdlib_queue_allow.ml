(* Fixture: PF002 suppressed. *)
(* breadth-first search at set-up time, not per packet; bfc-lint: allow pf-stdlib-queue *)
let build_route_table dst =
  let q = Queue.create () in
  Queue.add dst q;
  q
