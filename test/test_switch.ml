(* Tests for the switch model: FIFOs, schedulers, the shared buffer, ECN,
   PFC, INT stamping, and forwarding. *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Flow = Bfc_net.Flow
module Packet = Bfc_net.Packet
module Node = Bfc_net.Node
module Port = Bfc_net.Port
module Topology = Bfc_net.Topology
module Fifo = Bfc_switch.Fifo
module Sched = Bfc_switch.Sched
module Buffer = Bfc_switch.Buffer
module Switch = Bfc_switch.Switch

let check = Alcotest.check

let flow = Flow.make ~id:1 ~src:0 ~dst:1 ~size:1_000_000 ~arrival:0 ()

(* the packet table of the standalone queues and schedulers below *)
let pool = Port.pool (Sim.create ())

let data ?(payload = 1000) ?(remaining = 0) () =
  let p = Packet.data ~flow ~seq:0 ~payload () in
  Packet.Pool.set_remaining pool p remaining;
  p

(* ------------------------------- Fifo ------------------------------ *)

let test_fifo_accounting () =
  let q = Fifo.create ~pool ~idx:0 ~cls:0 in
  Alcotest.(check bool) "empty" true (Fifo.is_empty q);
  let p = data () in
  Fifo.push q p;
  check Alcotest.int "bytes" (Packet.size p) q.Fifo.bytes;
  check Alcotest.int "len" 1 (Fifo.length q);
  let got = Fifo.pop q in
  Alcotest.(check bool) "same packet" true (p == got);
  check Alcotest.int "bytes zero" 0 q.Fifo.bytes

let test_fifo_head_remaining () =
  let q = Fifo.create ~pool ~idx:0 ~cls:0 in
  check Alcotest.int "empty = max_int" max_int (Fifo.head_remaining q);
  Fifo.push q (data ~remaining:500 ());
  Fifo.push q (data ~remaining:99 ());
  check Alcotest.int "head's remaining" 500 (Fifo.head_remaining q)

(* Queues link through their packets, so two queues filled in turn must
   each keep their own order, across pops that empty one and refill it. *)
let test_fifo_interleaved_orders () =
  let qa = Fifo.create ~pool ~idx:0 ~cls:0 and qb = Fifo.create ~pool ~idx:1 ~cls:0 in
  let next_in = [| 0; 1000 |] and next_out = [| 0; 1000 |] in
  let push k q n =
    for _ = 1 to n do
      Fifo.push q (data ~remaining:next_in.(k) ());
      next_in.(k) <- next_in.(k) + 1
    done
  in
  let pop k q n =
    for _ = 1 to n do
      check Alcotest.int "fifo order" next_out.(k) (Packet.Pool.remaining pool (Fifo.pop q));
      next_out.(k) <- next_out.(k) + 1
    done
  in
  for round = 1 to 5 do
    for _ = 1 to round do
      push 0 qa 1;
      push 1 qb 2
    done;
    pop 0 qa (Fifo.length qa - 1);
    pop 1 qb (Fifo.length qb)
  done;
  check Alcotest.int "a's len" 1 (Fifo.length qa);
  check Alcotest.int "b emptied" 0 (Fifo.length qb);
  push 1 qb 3;
  check Alcotest.int "b's head after refill" next_out.(1) (Fifo.head_remaining qb);
  pop 0 qa 1;
  pop 1 qb 3;
  List.iter
    (fun q ->
      Alcotest.(check bool) "empty" true (Fifo.is_empty q);
      check Alcotest.int "bytes zero" 0 q.Fifo.bytes;
      check Alcotest.int "empty head size" 0 (Fifo.head_size q);
      check Alcotest.(option string) "chain well formed" None (Fifo.chain_fault q))
    [ qa; qb ]

(* A queue stores only ints in its packets: once its packets are indexed,
   push and pop allocate nothing, however deep the queue gets. *)
let test_fifo_allocates_nothing () =
  let q = Fifo.create ~pool ~idx:0 ~cls:0 in
  let pkts = Array.init 64 (fun _ -> data ()) in
  Array.iter (fun p -> ignore (Packet.Pool.index pool p)) pkts;
  let cycle depth =
    for i = 0 to depth - 1 do
      Fifo.push q pkts.(i)
    done;
    for _ = 1 to depth do
      ignore (Fifo.pop q)
    done
  in
  cycle 64;
  let w0 = Gc.minor_words () in
  for depth = 1 to 64 do
    cycle depth
  done;
  check (Alcotest.float 0.0) "minor words" 0.0 (Gc.minor_words () -. w0)

let test_fifo_rejects_released () =
  let q = Fifo.create ~pool ~idx:0 ~cls:0 in
  let p = Packet.Pool.acquire pool Packet.Data ~flow:Packet.no_flow ~dst:1 ~size:100 ~seq:0 in
  Packet.Pool.release pool p;
  Alcotest.check_raises "push of a released packet"
    (Invalid_argument "Fifo.push: released packet") (fun () -> Fifo.push q p);
  check Alcotest.int "queue untouched" 0 (Fifo.length q)

(* [chain_fault] finds each way a chain can break. *)
let test_fifo_chain_fault () =
  let fresh () =
    let q = Fifo.create ~pool ~idx:0 ~cls:0 in
    let ps = Array.init 3 (fun _ -> data ()) in
    Array.iter (Fifo.push q) ps;
    check Alcotest.(option string) "well formed" None (Fifo.chain_fault q);
    (q, ps)
  in
  let broken what q = Alcotest.(check bool) what true (Option.is_some (Fifo.chain_fault q)) in
  let q, ps = fresh () in
  Packet.set_link ps.(0) (Packet.link ps.(1));
  broken "a packet skipped" q;
  let q, ps = fresh () in
  Packet.set_link ps.(2) (Packet.idx ps.(0));
  broken "the tail links back" q;
  let q, ps = fresh () in
  Packet.set_link ps.(1) (-1);
  broken "the chain ends early" q;
  let q, ps = fresh () in
  let parked = Packet.Pool.acquire pool Packet.Data ~flow:Packet.no_flow ~dst:1 ~size:1048 ~seq:0 in
  Packet.set_link parked (Packet.idx ps.(2));
  Packet.Pool.release pool parked;
  Packet.set_link ps.(0) (Packet.idx parked);
  broken "a released packet in the chain" q;
  let q, _ = fresh () in
  q.Fifo.bytes <- q.Fifo.bytes + 1;
  broken "bytes disagree" q

(* ------------------------------ Sched ------------------------------ *)

let mk_sched ?(n = 4) ?(policy = Sched.Drr) ?(classes = 1) () =
  let queues = Array.init n (fun idx -> Fifo.create ~pool ~idx ~cls:(idx * classes / n)) in
  (Sched.create policy ~queues ~classes ~quantum:1100, queues)

(* One dequeue through [Sched.take], as (queue served, packet taken). *)
let next s =
  let pkt = Sched.take s in
  if pkt == Packet.placeholder then None else Some (Sched.served s, pkt)

(* Served queue indices until nothing is eligible. *)
let drain_order s =
  let rec go acc =
    match next s with Some (fifo, _) -> go (fifo.Fifo.idx :: acc) | None -> List.rev acc
  in
  go []

let test_sched_drr_round_robin () =
  let s, q = mk_sched () in
  for _ = 1 to 3 do
    Sched.push s q.(0) (data ());
    Sched.push s q.(2) (data ())
  done;
  check Alcotest.(list int) "alternates" [ 0; 2; 0; 2; 0; 2 ] (drain_order s)

let test_sched_drr_byte_fairness () =
  (* queue 0 has big packets, queue 1 small ones: over time bytes served
     should be roughly equal *)
  let s, q = mk_sched () in
  for _ = 1 to 50 do
    Sched.push s q.(0) (data ~payload:1000 ())
  done;
  for _ = 1 to 500 do
    Sched.push s q.(1) (data ~payload:100 ())
  done;
  let served = [| 0; 0 |] in
  for _ = 1 to 200 do
    match next s with
    | Some (fifo, pkt) -> served.(fifo.Fifo.idx) <- served.(fifo.Fifo.idx) + Packet.size pkt
    | None -> ()
  done;
  let ratio = float_of_int served.(0) /. float_of_int served.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "byte-fair (ratio %f)" ratio)
    true
    (ratio > 0.75 && ratio < 1.35)

let test_sched_pause_eligibility () =
  let s, q = mk_sched () in
  Sched.push s q.(0) (data ());
  Sched.push s q.(1) (data ());
  Sched.set_paused s q.(0) true;
  (match next s with
  | Some (fifo, _) -> check Alcotest.int "skips paused" 1 fifo.Fifo.idx
  | None -> Alcotest.fail "expected a packet");
  Alcotest.(check bool) "nothing else eligible" true (next s = None);
  Sched.set_paused s q.(0) false;
  match next s with
  | Some (fifo, _) -> check Alcotest.int "resumed queue serves" 0 fifo.Fifo.idx
  | None -> Alcotest.fail "expected resumed packet"

let test_sched_n_active () =
  let s, q = mk_sched () in
  check Alcotest.int "idle" 0 (Sched.n_active s);
  Sched.push s q.(0) (data ());
  Sched.push s q.(1) (data ());
  check Alcotest.int "two active" 2 (Sched.n_active s);
  Sched.set_paused s q.(1) true;
  check Alcotest.int "paused not active" 1 (Sched.n_active s);
  check Alcotest.int "still backlogged" 2 (Sched.n_backlogged s);
  ignore (Sched.take s);
  check Alcotest.int "drained one" 0 (Sched.n_active s)

let test_sched_srf_order () =
  let s, q = mk_sched ~policy:Sched.Srf () in
  Sched.push s q.(0) (data ~remaining:5000 ());
  Sched.push s q.(1) (data ~remaining:100 ());
  Sched.push s q.(2) (data ~remaining:900 ());
  check Alcotest.(list int) "shortest remaining first" [ 1; 2; 0 ] (drain_order s)

let test_sched_prio_strict () =
  let s, q = mk_sched ~policy:Sched.Prio_strict () in
  Sched.push s q.(3) (data ());
  Sched.push s q.(1) (data ());
  Sched.push s q.(3) (data ());
  check Alcotest.(list int) "lowest index first" [ 1; 3; 3 ] (drain_order s)

let test_sched_classes () =
  (* 4 queues, 2 classes; class 0 (queues 0-1) strictly beats class 1 *)
  let s, q = mk_sched ~classes:2 () in
  Sched.push s q.(3) (data ());
  Sched.push s q.(0) (data ());
  (match next s with
  | Some (fifo, _) -> check Alcotest.int "high class first" 0 fifo.Fifo.idx
  | None -> Alcotest.fail "no packet");
  match next s with
  | Some (fifo, _) -> check Alcotest.int "then low class" 3 fifo.Fifo.idx
  | None -> Alcotest.fail "no packet"

let test_sched_take_allocates_nothing () =
  let s, q = mk_sched () in
  let pkts = Array.init 64 (fun _ -> data ()) in
  (* warm up: grow every ring to its high-water mark and index the
     packets in the table *)
  Array.iteri (fun i p -> Sched.push s q.(i land 3) p) pkts;
  ignore (drain_order s);
  let w0 = Gc.minor_words () in
  for round = 1 to 100 do
    for i = 0 to Array.length pkts - 1 do
      Sched.push s q.((i + round) land 3) pkts.(i)
    done;
    while Sched.take s != Packet.placeholder do
      ()
    done
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "push/take minor words" 0.0 words

(* Differential check against a reference model: the Stdlib.Queue-based
   FIFO and candidate rings the array rings replaced, transcribed
   operation for operation. Random push / take / pause / resume / flush
   sequences must serve the same (queue, packet index) sequence and keep
   the same N_active and backlog counts. *)
module Model = struct
  type q = {
    idx : int;
    cls : int;
    pkts : Packet.t Queue.t;
    mutable paused : bool;
    mutable deficit : int;
    mutable in_ring : bool;
  }

  type t = {
    policy : Sched.policy;
    queues : q array;
    quantum : int;
    rings : q Queue.t array;
    mutable nonempty : int;
    mutable nonempty_paused : int;
  }

  let create policy ~n ~classes ~quantum =
    {
      policy;
      queues =
        Array.init n (fun idx ->
            { idx; cls = idx * classes / n; pkts = Queue.create (); paused = false; deficit = 0;
              in_ring = false });
      quantum;
      rings = Array.init classes (fun _ -> Queue.create ());
      nonempty = 0;
      nonempty_paused = 0;
    }

  let eligible q = (not (Queue.is_empty q.pkts)) && not q.paused

  let activate t q =
    if (not q.in_ring) && eligible q then begin
      q.in_ring <- true;
      Queue.add q t.rings.(q.cls)
    end

  let push t q pkt =
    let was_empty = Queue.is_empty q.pkts in
    Queue.add pkt q.pkts;
    if was_empty then begin
      t.nonempty <- t.nonempty + 1;
      if q.paused then t.nonempty_paused <- t.nonempty_paused + 1
    end;
    activate t q

  let note_popped t q =
    if Queue.is_empty q.pkts then begin
      t.nonempty <- t.nonempty - 1;
      if q.paused then t.nonempty_paused <- t.nonempty_paused - 1;
      q.deficit <- 0
    end

  let set_paused t q paused =
    if q.paused <> paused then begin
      q.paused <- paused;
      if not (Queue.is_empty q.pkts) then
        t.nonempty_paused <- (t.nonempty_paused + if paused then 1 else -1);
      if not paused then activate t q
    end

  let evict_front ring =
    let q = Queue.pop ring in
    q.in_ring <- false;
    q

  let next_drr t ring =
    let budget = ref ((2 * Queue.length ring) + 2) in
    let result = ref None in
    while !result = None && (not (Queue.is_empty ring)) && !budget > 0 do
      decr budget;
      let q = Queue.peek ring in
      if not (eligible q) then ignore (evict_front ring)
      else begin
        let pkt = Queue.peek q.pkts in
        if q.deficit >= Packet.size pkt then begin
          ignore (Queue.pop q.pkts);
          q.deficit <- q.deficit - Packet.size pkt;
          note_popped t q;
          if Queue.is_empty q.pkts then ignore (evict_front ring);
          result := Some (q.idx, Packet.idx pkt)
        end
        else begin
          q.deficit <- q.deficit + t.quantum;
          let q = evict_front ring in
          q.in_ring <- true;
          Queue.add q ring
        end
      end
    done;
    !result

  let next_scan t ring ~better =
    let best = ref None in
    for _ = 1 to Queue.length ring do
      let q = Queue.pop ring in
      if eligible q then begin
        Queue.add q ring;
        match !best with
        | None -> best := Some q
        | Some b -> if better q b then best := Some q
      end
      else q.in_ring <- false
    done;
    match !best with
    | None -> None
    | Some q ->
      let pkt = Queue.pop q.pkts in
      note_popped t q;
      Some (q.idx, Packet.idx pkt)

  let remaining q = if Queue.is_empty q.pkts then max_int else Packet.Pool.remaining pool (Queue.peek q.pkts)

  let next t =
    let rec by_class c =
      if c >= Array.length t.rings then None
      else begin
        let ring = t.rings.(c) in
        let r =
          if Queue.is_empty ring then None
          else begin
            match t.policy with
            | Sched.Drr -> next_drr t ring
            | Sched.Srf -> next_scan t ring ~better:(fun a b -> remaining a < remaining b)
            | Sched.Prio_strict -> next_scan t ring ~better:(fun a b -> a.idx < b.idx)
          end
        in
        match r with None -> by_class (c + 1) | Some _ -> r
      end
    in
    by_class 0

  let flush t =
    let out = ref [] in
    Array.iter
      (fun q ->
        while not (Queue.is_empty q.pkts) do
          out := Packet.idx (Queue.pop q.pkts) :: !out
        done;
        q.paused <- false;
        q.deficit <- 0;
        q.in_ring <- false)
      t.queues;
    Array.iter Queue.clear t.rings;
    t.nonempty <- 0;
    t.nonempty_paused <- 0;
    List.rev !out
end

type sched_op = Push of int * int * int | Take | Pause of int | Resume of int | Flush

let n_model_queues = 8

let gen_sched_case =
  let open QCheck.Gen in
  let op =
    frequency
      [
        ( 10,
          map3
            (fun q payload remaining -> Push (q, payload, remaining))
            (int_bound (n_model_queues - 1)) (int_range 1 1000) (int_bound 5000) );
        (7, return Take);
        (2, map (fun q -> Pause q) (int_bound (n_model_queues - 1)));
        (2, map (fun q -> Resume q) (int_bound (n_model_queues - 1)));
        (1, return Flush);
      ]
  in
  triple
    (oneofl [ Sched.Drr; Sched.Srf; Sched.Prio_strict ])
    (oneofl [ 1; 2; 4 ])
    (list_size (int_range 1 400) op)

let print_sched_case (policy, classes, ops) =
  Printf.sprintf "%s classes=%d [%s]"
    (match policy with Sched.Drr -> "Drr" | Sched.Srf -> "Srf" | Sched.Prio_strict -> "Prio_strict")
    classes
    (String.concat "; "
       (List.map
          (function
            | Push (q, p, r) -> Printf.sprintf "push %d %d %d" q p r
            | Take -> "take"
            | Pause q -> Printf.sprintf "pause %d" q
            | Resume q -> Printf.sprintf "resume %d" q
            | Flush -> "flush")
          ops))

let prop_sched_matches_queue_model =
  QCheck.Test.make ~name:"array-ring sched matches the Stdlib.Queue model" ~count:300
    (QCheck.make ~print:print_sched_case gen_sched_case)
    (fun (policy, classes, ops) ->
      let s, qs = mk_sched ~n:n_model_queues ~policy ~classes () in
      let m = Model.create policy ~n:n_model_queues ~classes ~quantum:1100 in
      let counts () = (Sched.n_active s, Sched.n_backlogged s) in
      let model_counts () = (m.Model.nonempty - m.Model.nonempty_paused, m.Model.nonempty) in
      List.for_all
        (fun op ->
          let same_step =
            match op with
            | Push (q, payload, remaining) ->
              let p = data ~payload ~remaining () in
              Sched.push s qs.(q) p;
              Model.push m m.Model.queues.(q) p;
              true
            | Take ->
              let got = Option.map (fun (f, p) -> (f.Fifo.idx, Packet.idx p)) (next s) in
              got = Model.next m
            | Pause q ->
              Sched.set_paused s qs.(q) true;
              Model.set_paused m m.Model.queues.(q) true;
              true
            | Resume q ->
              Sched.set_paused s qs.(q) false;
              Model.set_paused m m.Model.queues.(q) false;
              true
            | Flush ->
              let out = ref [] in
              Sched.flush s (fun p -> out := Packet.idx p :: !out);
              List.rev !out = Model.flush m
          in
          same_step
          && counts () = model_counts ()
          && Array.for_all2
               (fun q mq ->
                 Fifo.length q = Queue.length mq.Model.pkts && q.Fifo.paused = mq.Model.paused)
               qs m.Model.queues)
        ops)

(* ------------------------------ Buffer ----------------------------- *)

let test_buffer_admission () =
  let b = Buffer.create ~total:10_000 ~alpha:1.0 ~n_ingress:2 in
  Alcotest.(check bool) "admits into empty" true (Buffer.admit b ~queue_bytes:0 ~size:1000);
  Buffer.on_enqueue b ~in_port:0 ~size:9_500;
  Alcotest.(check bool) "rejects overflow" false (Buffer.admit b ~queue_bytes:0 ~size:1000);
  check Alcotest.int "ingress accounting" 9_500 (Buffer.ingress_used b 0);
  Buffer.on_dequeue b ~in_port:0 ~size:9_500;
  check Alcotest.int "freed" 0 (Buffer.used b)

let test_buffer_dynamic_threshold () =
  let b = Buffer.create ~total:10_000 ~alpha:0.5 ~n_ingress:1 in
  Buffer.on_enqueue b ~in_port:0 ~size:6_000;
  (* free = 4000; threshold = 2000: a queue already at 2500 is rejected *)
  Alcotest.(check bool) "DT rejects hog queue" false (Buffer.admit b ~queue_bytes:2_500 ~size:100);
  Alcotest.(check bool) "DT admits small queue" true (Buffer.admit b ~queue_bytes:500 ~size:100)

let test_buffer_infinite () =
  let b = Buffer.create ~total:max_int ~alpha:1.0 ~n_ingress:1 in
  Alcotest.(check bool) "always admits" true (Buffer.admit b ~queue_bytes:max_int ~size:1_000_000)

(* --------------------------- Switch glue --------------------------- *)

(* Build: h0, h1 -> sw -> hR; the switch forwards by routing hook. *)
let mini_net ?(config = Switch.default_config) () =
  let sim = Sim.create () in
  let st = Topology.star sim ~senders:2 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let t = st.Topology.s in
  let route _sw ~in_port:_ pkt = (Topology.candidates t ~node:st.Topology.st_switch ~dst:(Packet.dst pkt)).(0) in
  let sw =
    Switch.create ~sim ~node:(Topology.node t st.Topology.st_switch)
      ~ports:(Topology.ports t st.Topology.st_switch) ~config ~route ()
  in
  (sim, st, t, sw)

let receiver_log t st =
  let log = ref [] in
  (Topology.node t st.Topology.st_receiver).Node.handler <-
    (fun ~in_port:_ pkt -> log := pkt :: !log);
  log

let send_from t st i pkt = Port.send (Topology.ports t st.Topology.st_senders.(i)).(0) pkt

(* Deliver straight into the switch on sender [i]'s ingress port (bursts
   faster than a single host uplink could physically produce). *)
let deliver_burst t st i pkt = Node.deliver (Topology.node t st.Topology.st_switch) ~in_port:i pkt

let test_switch_forwards () =
  let sim, st, t, _sw = mini_net () in
  let log = receiver_log t st in
  let f = Flow.make ~id:4 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size:1000 ~arrival:0 () in
  send_from t st 0 (Packet.data ~flow:f ~seq:0 ~payload:1000 ());
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "delivered" 1 (List.length !log)

let test_switch_queues_when_contended () =
  let sim, st, t, sw = mini_net () in
  let log = receiver_log t st in
  (* queuing delay as the switch sees it: dequeue time minus enqueue time *)
  let delayed = ref 0 in
  let hk = Switch.hooks sw in
  let prev = hk.Switch.on_dequeue in
  hk.Switch.on_dequeue <-
    (fun s ~egress ~queue p ->
      if Sim.now sim - Packet.enq_at p > 0 then incr delayed;
      prev s ~egress ~queue p);
  (* both senders blast 20 packets at the same time: the 100G egress must
     serialize 40 packets => last arrival ~40 x 84ns after the first *)
  for i = 0 to 1 do
    let f =
      Flow.make ~id:(10 + i) ~src:st.Topology.st_senders.(i) ~dst:st.Topology.st_receiver
        ~size:20_000 ~arrival:0 ()
    in
    for k = 0 to 19 do
      ignore
        (Sim.at sim (k * 84) (fun () ->
             deliver_burst t st i (Packet.data ~flow:f ~seq:(k * 1000) ~payload:1000 ())))
    done
  done;
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "all 40 delivered" 40 (List.length !log);
  check Alcotest.int "no drops" 0 (Switch.drops sw);
  (* at least the tail packets waited in the queue *)
  Alcotest.(check bool) "tail packets queued" true (!delayed > 10)

let test_switch_drops_when_full () =
  let config = { Switch.default_config with Switch.buffer_bytes = 5_000 } in
  let sim, st, t, sw = mini_net ~config () in
  let _log = receiver_log t st in
  let f = Flow.make ~id:9 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size:100_000 ~arrival:0 () in
  (* 2 senders x 30 pkts instantly: way over the 5KB buffer *)
  for i = 0 to 1 do
    for k = 0 to 29 do
      ignore
        (Sim.at sim (k * 42) (fun () ->
             deliver_burst t st i (Packet.data ~flow:f ~seq:(k * 1000) ~payload:1000 ())))
    done
  done;
  ignore (Sim.run_until_idle sim);
  Alcotest.(check bool) "drops happened" true (Switch.drops sw > 0);
  Alcotest.(check bool) "data drops counted" true (Switch.data_drops sw > 0)

let test_switch_ecn_marks () =
  let config =
    {
      Switch.default_config with
      Switch.ecn = Some { Switch.kmin = 2_000; kmax = 4_000 };
    }
  in
  let sim, st, t, _sw = mini_net ~config () in
  let log = receiver_log t st in
  let f = Flow.make ~id:3 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size:50_000 ~arrival:0 () in
  for k = 0 to 29 do
    (* all at t=0: the queue builds beyond kmax *)
    deliver_burst t st 0 (Packet.data ~flow:f ~seq:(k * 1000) ~payload:1000 ())
  done;
  ignore (Sim.run_until_idle sim);
  let marked = List.length (List.filter Packet.ecn !log) in
  Alcotest.(check bool) (Printf.sprintf "some marked (%d)" marked) true (marked > 5);
  let unmarked = List.length (List.filter (fun p -> not (Packet.ecn p)) !log) in
  Alcotest.(check bool) "early packets unmarked" true (unmarked >= 2)

let test_switch_int_stamping () =
  let config = { Switch.default_config with Switch.int_stamping = true } in
  let sim, st, t, sw = mini_net ~config () in
  let log = receiver_log t st in
  let f = Flow.make ~id:5 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size:1000 ~arrival:0 () in
  send_from t st 0 (Packet.data ~flow:f ~seq:0 ~payload:1000 ());
  ignore (Sim.run_until_idle sim);
  match !log with
  | [ p ] ->
    let pool = Switch.pool sw in
    check Alcotest.int "one INT hop" 1 (Packet.Pool.int_hop_count pool p);
    let h = (Packet.Pool.int_hops pool p).(0) in
    Alcotest.(check (float 0.01)) "gbps recorded" 100.0 h.Packet.h_gbps;
    Alcotest.(check bool) "tx bytes positive" true (h.Packet.h_tx_bytes > 0)
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_switch_pfc_pause_resume () =
  (* tiny buffer so ingress occupancy crosses the PFC threshold *)
  let config =
    {
      Switch.default_config with
      Switch.buffer_bytes = 40_000;
      pfc = Some 0.11;
    }
  in
  let sim, st, t, sw = mini_net ~config () in
  let _log = receiver_log t st in
  (* sender 0's host node observes Pfc control packets and complies *)
  let pfc_events = ref [] in
  let paused = ref false in
  (Topology.node t st.Topology.st_senders.(0)).Node.handler <-
    (fun ~in_port:_ pkt ->
      if Packet.kind pkt = Packet.Pfc then begin
        pfc_events := Packet.ctrl_b pkt :: !pfc_events;
        paused := Packet.ctrl_b pkt = 1
      end);
  let f = Flow.make ~id:6 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size:100_000 ~arrival:0 () in
  (* inject at 2x line rate, but honour the pause like a real upstream *)
  let k = ref 0 in
  let rec inject () =
    if !k < 60 then begin
      if not !paused then begin
        deliver_burst t st 0 (Packet.data ~flow:f ~seq:(!k * 1000) ~payload:1000 ());
        incr k
      end;
      ignore (Sim.after sim 42 inject)
    end
  in
  inject ();
  ignore (Sim.run_until_idle sim);
  Alcotest.(check bool) "pause sent" true (List.mem 1 !pfc_events);
  Alcotest.(check bool) "resume sent" true (List.mem 0 !pfc_events);
  check Alcotest.int "no drops thanks to PFC headroom" 0 (Switch.drops sw)

let test_switch_pfc_pauses_egress () =
  let sim, st, t, sw = mini_net () in
  let _log = receiver_log t st in
  let f = Flow.make ~id:7 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size:10_000 ~arrival:0 () in
  (* find the egress towards the receiver and PFC-pause it externally *)
  let egress = ref (-1) in
  Array.iteri
    (fun i p -> if (Port.peer p).Node.id = st.Topology.st_receiver then egress := i)
    (Topology.ports t st.Topology.st_switch);
  let pfc = Packet.make Packet.Pfc ~dst:(-1) ~size:64 () in
  Packet.set_ctrl_b pfc 1;
  Node.deliver (Topology.node t st.Topology.st_switch) ~in_port:!egress pfc;
  send_from t st 0 (Packet.data ~flow:f ~seq:0 ~payload:1000 ());
  ignore (Sim.run sim ~until:(Time.us 100.0));
  Alcotest.(check bool) "held while paused" true (Switch.egress_bytes sw ~egress:!egress > 0);
  Alcotest.(check bool) "pause time accounted" true (Switch.pfc_paused_ns sw ~egress:!egress > 0);
  let resume = Packet.make Packet.Pfc ~dst:(-1) ~size:64 () in
  Packet.set_ctrl_b resume 0;
  Node.deliver (Topology.node t st.Topology.st_switch) ~in_port:!egress resume;
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "drained after resume" 0 (Switch.egress_bytes sw ~egress:!egress)

let test_switch_conservation () =
  let sim, st, t, sw = mini_net () in
  let log = receiver_log t st in
  let n = 100 in
  for i = 0 to 1 do
    let f =
      Flow.make ~id:(20 + i) ~src:st.Topology.st_senders.(i) ~dst:st.Topology.st_receiver
        ~size:(n * 1000) ~arrival:0 ()
    in
    for k = 0 to (n / 2) - 1 do
      ignore
        (Sim.at sim (k * 90) (fun () ->
             send_from t st i (Packet.data ~flow:f ~seq:(k * 1000) ~payload:1000 ())))
    done
  done;
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "rx = tx + drops" (Switch.rx_packets sw)
    (Switch.tx_packets sw + Switch.drops sw);
  check Alcotest.int "all delivered" n (List.length !log);
  check Alcotest.int "buffer empty at the end" 0 (Switch.buffer_used sw)

let test_switch_queue_pause_api () =
  let sim, st, t, sw = mini_net () in
  let log = receiver_log t st in
  let f = Flow.make ~id:8 ~src:st.Topology.st_senders.(0) ~dst:st.Topology.st_receiver ~size:2000 ~arrival:0 () in
  let egress = ref (-1) in
  Array.iteri
    (fun i p -> if (Port.peer p).Node.id = st.Topology.st_receiver then egress := i)
    (Topology.ports t st.Topology.st_switch);
  (* default classify maps prio 0 -> queue 0 *)
  Switch.set_queue_paused sw ~egress:!egress ~queue:0 true;
  send_from t st 0 (Packet.data ~flow:f ~seq:0 ~payload:1000 ());
  ignore (Sim.run sim ~until:(Time.us 50.0));
  check Alcotest.int "held" 0 (List.length !log);
  check Alcotest.int "n_active excludes paused" 0 (Switch.n_active sw ~egress:!egress);
  Switch.set_queue_paused sw ~egress:!egress ~queue:0 false;
  ignore (Sim.run_until_idle sim);
  check Alcotest.int "released" 1 (List.length !log)

let suite =
  [
    ("fifo accounting", `Quick, test_fifo_accounting);
    ("fifo head remaining", `Quick, test_fifo_head_remaining);
    ("fifo interleaved queues keep order", `Quick, test_fifo_interleaved_orders);
    ("fifo push and pop allocate nothing", `Quick, test_fifo_allocates_nothing);
    ("fifo rejects a released packet", `Quick, test_fifo_rejects_released);
    ("fifo chain fault", `Quick, test_fifo_chain_fault);
    ("sched drr round robin", `Quick, test_sched_drr_round_robin);
    ("sched drr byte fairness", `Quick, test_sched_drr_byte_fairness);
    ("sched pause eligibility", `Quick, test_sched_pause_eligibility);
    ("sched n_active", `Quick, test_sched_n_active);
    ("sched srf order", `Quick, test_sched_srf_order);
    ("sched strict priority", `Quick, test_sched_prio_strict);
    ("sched classes", `Quick, test_sched_classes);
    ("sched take allocates nothing", `Quick, test_sched_take_allocates_nothing);
    QCheck_alcotest.to_alcotest prop_sched_matches_queue_model;
    ("buffer admission", `Quick, test_buffer_admission);
    ("buffer dynamic threshold", `Quick, test_buffer_dynamic_threshold);
    ("buffer infinite", `Quick, test_buffer_infinite);
    ("switch forwards", `Quick, test_switch_forwards);
    ("switch queues under contention", `Quick, test_switch_queues_when_contended);
    ("switch drops when full", `Quick, test_switch_drops_when_full);
    ("switch ecn marks", `Quick, test_switch_ecn_marks);
    ("switch int stamping", `Quick, test_switch_int_stamping);
    ("switch pfc pause/resume", `Quick, test_switch_pfc_pause_resume);
    ("switch pfc pauses egress", `Quick, test_switch_pfc_pauses_egress);
    ("switch conservation", `Quick, test_switch_conservation);
    ("switch queue pause api", `Quick, test_switch_queue_pause_api);
  ]
