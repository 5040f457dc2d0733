(* PDES layer tests: the partition map invariants (qcheck), the SPSC
   inter-shard channel, the late-rank queue insertion the barrier relies
   on, the barrier's [~sent] proof obligation, and the headline property
   of the whole subsystem — a sharded run is byte-identical to the
   sequential run of the same experiment. *)

open Alcotest
module Wheel = Bfc_util.Wheel
module Sim = Bfc_engine.Sim
module Time = Bfc_engine.Time
module Channel = Bfc_engine.Channel
module Topology = Bfc_net.Topology
module Partition = Bfc_net.Partition
module Flow = Bfc_net.Flow
module Pdes = Bfc_sim.Pdes
module Exp_common = Bfc_sim.Exp_common
module Scheme = Bfc_sim.Scheme
module Runner = Bfc_sim.Runner

(* ------------------------------ channel ---------------------------- *)

let test_channel_fifo () =
  let c = Channel.create ~capacity:8 in
  for i = 0 to 7 do
    check bool "push accepted" true (Channel.try_push c i)
  done;
  check bool "full channel rejects" false (Channel.try_push c 99);
  for i = 0 to 7 do
    match Channel.pop c with
    | Some v -> check int "FIFO order" i v
    | None -> fail "unexpected empty"
  done;
  check bool "drained" true (Channel.is_empty c);
  check (option int) "pop on empty" None (Channel.pop c)

let test_channel_wraparound () =
  let c = Channel.create ~capacity:4 in
  (* push/pop interleaved well past the ring size *)
  let next_in = ref 0 and next_out = ref 0 in
  for _ = 1 to 100 do
    if Channel.try_push c !next_in then incr next_in;
    if Channel.try_push c !next_in then incr next_in;
    match Channel.pop c with
    | Some v ->
      check int "wraparound order" !next_out v;
      incr next_out
    | None -> ()
  done;
  check int "pushed counter" !next_in (Channel.pushed c);
  check int "popped counter" !next_out (Channel.popped c)

(* ------------------------- late-rank insertion --------------------- *)

(* [push_late] must pop in the (priority, rank, seq) order a heap keyed
   on that triple gives, which is the sorted order of the triples. Drive
   it with an interleaving of monotone pushes and out-of-order late
   inserts. *)
let test_push_late_matches_heap () =
  let rng = Bfc_util.Rng.create 11 in
  for _round = 1 to 20 do
    let w = Wheel.create () in
    let n = 60 in
    let entries = ref [] in
    for id = 0 to n - 1 do
      let time = 1 + Bfc_util.Rng.int rng 40 in
      let late = Bfc_util.Rng.int rng 3 = 0 in
      let rank =
        if late then begin
          let rank = Bfc_util.Rng.int rng 40 in
          ignore (Wheel.push_late w ~priority:time ~rank ~cls:0 ~a0:id ~a1:0 : int);
          rank
        end
        else begin
          (* monotone path: rank grows with every push, like a sim clock *)
          let rank = 100 + id in
          ignore (Wheel.push w ~rank ~priority:time ~cls:0 ~a0:id ~a1:0 : int);
          rank
        end
      in
      entries := (time, rank, id) :: !entries
    done;
    let drained = ref [] in
    for _ = 1 to n do
      drained := Wheel.a0 w (Wheel.pop_min_exn w) :: !drained
    done;
    check (list int) "wheel pops late ranks in heap order"
      (List.map (fun (_, _, id) -> id) (List.sort compare !entries))
      (List.rev !drained)
  done

(* ----------------------- barrier proof obligation ------------------ *)

(* [~sent] ranks an insertion below the current clock, which the run
   loop's same-instant batching only tolerates between runs (the PDES
   barrier): from inside an executing event it must raise, and the flag
   must not outlive a run that raised. *)
let test_sent_inside_run_raises () =
  let sim = Sim.create () in
  let cls = Sim.cls_pdes_barrier in
  let fired = ref [] in
  Sim.register_class sim ~cls ~state:Sim.No_state ~exec:(fun _ a0 _ -> fired := a0 :: !fired);
  let refused = ref 0 in
  let refuse f = try f () with Invalid_argument _ -> incr refused in
  ignore
    (Sim.at sim 10 (fun () ->
         refuse (fun () -> Sim.post ~sent:5 sim 20 ~cls ~a0:1 ~a1:0);
         refuse (fun () -> ignore (Sim.post_token ~sent:5 sim 20 ~cls ~a0:1 ~a1:0));
         refuse (fun () -> ignore (Sim.at ~sent:5 sim 20 ignore))));
  ignore (Sim.run sim ~until:15);
  check int "every ~sent insertion from an event refused" 3 !refused;
  (* between runs the barrier form is legal *)
  Sim.post ~sent:5 sim 20 ~cls ~a0:2 ~a1:0;
  ignore (Sim.at sim 30 (fun () -> failwith "boom"));
  (match Sim.run sim ~until:40 with
  | _ -> fail "event exception swallowed"
  | exception Failure _ -> ());
  (* the run stopped at the failing event's instant *)
  Sim.post ~sent:25 sim 50 ~cls ~a0:3 ~a1:0;
  ignore (Sim.run_until_idle sim);
  check (list int) "barrier posts fire, refused ones never queued" [ 2; 3 ] (List.rev !fired)

(* --------------------------- partition maps ------------------------ *)

let mk_clos ~spines ~tors ~hosts_per_tor =
  let sim = Sim.create () in
  Topology.clos sim ~spines ~tors ~hosts_per_tor ~gbps:100.0 ~prop:(Time.us 1.0)

(* Any clos_pods or generic partition must be a true partition of the
   topology: every node in exactly one shard, reverse endpoints paired,
   positive propagation over the cut — exactly [Partition.check]. *)
let prop_partition_sound =
  QCheck.Test.make ~count:60 ~name:"partition maps pass Partition.check"
    QCheck.(triple (int_range 1 4) (int_range 1 6) (int_range 1 4))
    (fun (spines, tors, hosts_per_tor) ->
      let cl = mk_clos ~spines ~tors ~hosts_per_tor in
      let ok t =
        match Partition.check cl.Topology.t t with
        | Ok () -> true
        | Error e -> QCheck.Test.fail_reportf "check: %s" e
      in
      let shard_counts =
        List.filter (fun s -> s <= tors) [ 1; 2; 3; tors ] |> List.sort_uniq compare
      in
      List.for_all
        (fun shards ->
          ok (Partition.clos_pods cl ~shards) && ok (Partition.generic cl.Topology.t ~shards))
        shard_counts)

(* Ownership totality: every node owned by exactly the shard the map
   reports, and the cut is symmetric (u->v crosses iff v->u crosses). *)
let prop_partition_cut_symmetric =
  QCheck.Test.make ~count:40 ~name:"partition cut is symmetric"
    QCheck.(pair (int_range 1 4) (int_range 2 6))
    (fun (spines, tors) ->
      let cl = mk_clos ~spines ~tors ~hosts_per_tor:2 in
      let topo = cl.Topology.t in
      let t = Partition.clos_pods cl ~shards:(min 2 tors) in
      let n = Array.length (Topology.nodes topo) in
      for id = 0 to n - 1 do
        let o = Partition.owner t id in
        if o < 0 || o >= Partition.shards t then
          QCheck.Test.fail_reportf "node %d owner %d out of range" id o
      done;
      let crossings = Hashtbl.create 64 in
      Partition.iter_cut topo t (fun ~src p ->
          let dst = (Bfc_net.Port.peer p).Bfc_net.Node.id in
          Hashtbl.replace crossings (src, dst) ());
      Hashtbl.iter
        (fun (u, v) () ->
          if not (Hashtbl.mem crossings (v, u)) then
            QCheck.Test.fail_reportf "cut has %d->%d but not %d->%d" u v v u)
        crossings;
      true)

let test_partition_rejects_bad_map () =
  let cl = mk_clos ~spines:2 ~tors:2 ~hosts_per_tor:2 in
  let topo = cl.Topology.t in
  let n = Array.length (Topology.nodes topo) in
  (match Partition.clos_pods cl ~shards:3 with
  | exception Invalid_argument _ -> ()
  | _ -> fail "clos_pods: shards > tors accepted");
  (match Partition.make ~shards:2 ~owner:(Array.make n 5) with
  | exception Invalid_argument _ -> ()
  | _ -> fail "make: out-of-range owner accepted");
  (* wrong length is a structural error caught by check *)
  let bad = Partition.make ~shards:2 ~owner:(Array.make (n - 1) 0) in
  match Partition.check topo bad with
  | Error _ -> ()
  | Ok () -> fail "check: wrong owner length accepted"

(* ----------------------- sharded differential ---------------------- *)

let flow_sig f =
  (f.Flow.id, f.Flow.src, f.Flow.dst, f.Flow.size, f.Flow.delivered, f.Flow.finish, f.Flow.first_byte)

let run_differential label setup =
  let seq = Exp_common.run_std_seq setup in
  let sh = Exp_common.run_std_sharded setup ~shards:2 in
  check int (label ^ ": injected")
    (Runner.injected seq.Exp_common.env)
    (Runner.injected sh.Exp_common.env);
  check int (label ^ ": completed")
    (Runner.completed seq.Exp_common.env)
    (Runner.completed sh.Exp_common.env);
  let fs = seq.Exp_common.flows and fh = sh.Exp_common.flows in
  check int (label ^ ": flow count") (List.length fs) (List.length fh);
  List.iter2
    (fun a b ->
      let (ida, _, _, _, da, fa, ba) = flow_sig a in
      let (idb, _, _, _, db, fb, bb) = flow_sig b in
      if flow_sig a <> flow_sig b then
        failf "%s: flow %d/%d diverged: seq (del %d fin %d fb %d) vs sharded (del %d fin %d fb %d)"
          label ida idb da fa ba db fb bb)
    fs fh;
  check
    (list (list string))
    (label ^ ": fct rows")
    (Exp_common.fct_rows seq) (Exp_common.fct_rows sh);
  check (float 0.0)
    (label ^ ": buffer p99")
    (Exp_common.buffer_p99 seq) (Exp_common.buffer_p99 sh)

let test_differential_fig7_style () =
  let base = Exp_common.std Exp_common.Smoke (Scheme.Bfc Scheme.bfc_default) in
  run_differential "fig7-style" { base with Exp_common.sp_seed = 7 }

let test_differential_incast () =
  let base = Exp_common.std Exp_common.Smoke (Scheme.Bfc Scheme.bfc_default) in
  run_differential "incast"
    { base with Exp_common.sp_incast = Some Exp_common.default_incast; sp_seed = 3 }

let suite =
  [
    test_case "channel FIFO + bounded" `Quick test_channel_fifo;
    test_case "channel wraparound" `Quick test_channel_wraparound;
    test_case "push_late matches heap order" `Quick test_push_late_matches_heap;
    test_case "~sent from inside an event raises" `Quick test_sent_inside_run_raises;
    QCheck_alcotest.to_alcotest prop_partition_sound;
    QCheck_alcotest.to_alcotest prop_partition_cut_symmetric;
    test_case "partition rejects bad maps" `Quick test_partition_rejects_bad_map;
    test_case "sharded = sequential (fig7-style)" `Slow test_differential_fig7_style;
    test_case "sharded = sequential (incast)" `Slow test_differential_incast;
  ]
