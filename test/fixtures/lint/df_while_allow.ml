(* Fixture: DF002 suppressed. *)
let drain q =
  (* bounded by queue depth in practice; bfc-lint: allow df-while *)
  while not (Fifo.is_empty q) do
    ignore (Fifo.pop q)
  done
