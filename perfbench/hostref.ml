(* Host-speed reference: a fixed mix of the work the simulator's hot path
   does -- short-lived allocation, a hash table keyed by ints, and random
   reads over an array larger than the last-level cache -- timed with the
   monotonic clock. It links none of the simulator's libraries, so no
   change to the simulator can move it; only the host can. perfbench/run.py
   times it next to every cycle of repetitions and scales host times by
   [nominal / measured], which removes most of the minutes-long speed drift
   of a shared host from the figures.

   Usage: hostref.exe -- prints {"ref_s": seconds}. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type item = { id : int; mutable hits : int; next : item option }

let kernel () =
  let lcg = ref 0x1234567 in
  let rand bound =
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFF_FFFF;
    (!lcg lsr 4) mod bound
  in
  (* short-lived records, a few surviving into a bounded ring *)
  let ring = Array.make 4096 None in
  for i = 1 to 3_000_000 do
    let it = { id = i; hits = 0; next = ring.(i land 4095) } in
    if i land 7 = 0 then ring.(rand 4096) <- Some it
  done;
  (* int-keyed hash table: inserts, lookups, removals *)
  let tbl = Hashtbl.create 1024 in
  for i = 1 to 600_000 do
    let k = rand 200_000 in
    match Hashtbl.find_opt tbl k with
    | Some it -> it.hits <- it.hits + 1; if it.hits > 3 then Hashtbl.remove tbl k
    | None -> Hashtbl.replace tbl k { id = i; hits = 0; next = None }
  done;
  (* random reads over 32 MB *)
  let n = 1 lsl 22 in
  let a = Array.init n (fun i -> i) in
  let acc = ref 0 in
  for _ = 1 to 4_000_000 do
    acc := !acc + a.(rand n)
  done;
  ignore (Sys.opaque_identity (ring, tbl, !acc))

let () =
  let t0 = now_ns () in
  kernel ();
  Printf.printf "{\"ref_s\": %.17g}\n" (float_of_int (now_ns () - t0) /. 1e9)
