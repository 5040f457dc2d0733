(* Fixture: DF002 df-while must fire — unbounded loop in a packet path. *)
let drain q =
  while not (Fifo.is_empty q) do
    ignore (Fifo.pop q)
  done
