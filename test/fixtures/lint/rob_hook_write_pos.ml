(* Fixture: RB003 rob-hook-write must fire — an observer chaining onto a
   switch program hook, and one wrapping a node's receive handler. *)
let count_drops sw n =
  let hk = Switch.hooks sw in
  let prev = hk.Switch.on_drop in
  hk.Switch.on_drop <-
    (fun sw ~in_port ~egress ~queue pkt ->
      prev sw ~in_port ~egress ~queue pkt;
      incr n)

let wrap nd f =
  let prev = nd.Node.handler in
  nd.Node.handler <-
    (fun ~in_port pkt ->
      f pkt;
      prev ~in_port pkt)
