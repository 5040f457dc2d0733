(* Fixture: PF002 pf-stdlib-queue must fire — every Queue.add allocates a
   cell on a per-packet path. *)
let enqueue q pkt = Queue.add pkt q

let drain q f = while not (Stack.is_empty q) do f (Stack.pop q) done
