(* Fixture: PF003 suppressed. *)
(* sorts a handful of config pairs at set-up time; bfc-lint: allow pf-poly-compare *)
let sort_pairs l = List.sort compare l
