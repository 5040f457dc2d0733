(* The control-plane tracer: a consumer of the sim's tap whose events are
   stored as interned instants (pid = node id) in a Bfc_obs.Trace ring, so
   the same buffer that feeds [events]/[render] exports to Perfetto via
   {!trace}. *)

module Packet = Bfc_net.Packet
module Sim = Bfc_engine.Sim
module Tap = Bfc_engine.Tap
module Trace = Bfc_obs.Trace

type kind =
  | Pause_rx of { queue : int }
  | Resume_rx of { queue : int }
  | Bitmap_rx of { paused : int }
  | Pfc_rx of { pause : bool }
  | Hop_credit_rx of { queue : int; bytes : int }
  | Dropped of { flow : int }
  | Watchdog_fire of { egress : int; queue : int }
  | Link_down of { gid : int }
  | Link_up of { gid : int }
  | Rebooted of { flushed : int }

type event = { at : Bfc_engine.Time.t; node : int; ev : kind }

type t = Trace.t

(* Each kind's interned name and argument keys, in constructor order.
   They are the trace's first names, so a kind's name id is its tag. *)
let names =
  [|
    ("pause_rx", "queue", "b");
    ("resume_rx", "queue", "b");
    ("bitmap_rx", "paused", "b");
    ("pfc_rx", "pause", "b");
    ("hop_credit_rx", "queue", "bytes");
    ("drop", "flow", "b");
    ("watchdog", "egress", "queue");
    ("link_down", "gid", "b");
    ("link_up", "gid", "b");
    ("reboot", "flushed", "b");
  |]

let encode = function
  | Pause_rx { queue } -> (0, queue, Trace.absent_arg)
  | Resume_rx { queue } -> (1, queue, Trace.absent_arg)
  | Bitmap_rx { paused } -> (2, paused, Trace.absent_arg)
  | Pfc_rx { pause } -> (3, Bool.to_int pause, Trace.absent_arg)
  | Hop_credit_rx { queue; bytes } -> (4, queue, bytes)
  | Dropped { flow } -> (5, flow, Trace.absent_arg)
  | Watchdog_fire { egress; queue } -> (6, egress, queue)
  | Link_down { gid } -> (7, gid, Trace.absent_arg)
  | Link_up { gid } -> (8, gid, Trace.absent_arg)
  | Rebooted { flushed } -> (9, flushed, Trace.absent_arg)

let decode ~name ~a ~b =
  let a = Option.value a ~default:0 and b = Option.value b ~default:0 in
  match name with
  | 0 -> Pause_rx { queue = a }
  | 1 -> Resume_rx { queue = a }
  | 2 -> Bitmap_rx { paused = a }
  | 3 -> Pfc_rx { pause = a = 1 }
  | 4 -> Hop_credit_rx { queue = a; bytes = b }
  | 5 -> Dropped { flow = a }
  | 6 -> Watchdog_fire { egress = a; queue = b }
  | 7 -> Link_down { gid = a }
  | 8 -> Link_up { gid = a }
  | _ -> Rebooted { flushed = a }

let record t at node ev =
  let name, a, b = encode ev in
  Trace.instant t ~ts:at ~name ~pid:node ~tid:0 ~a ~b ()

let attach env ~capacity =
  if capacity <= 0 then invalid_arg "Tracer.attach: capacity";
  let t = Trace.create ~capacity () in
  Array.iter (fun (name, akey, bkey) -> ignore (Trace.intern t ~akey ~bkey name)) names;
  let sim = Runner.sim env and pool = Runner.pool env in
  let on kind ev =
    Tap.on (Sim.tap sim) kind (fun ~node a0 a1 -> record t (Sim.now sim) node (ev a0 a1))
  in
  Tap.on (Sim.tap sim) Tap.Ctrl_rx (fun ~node _ p ->
      let pkt = Packet.Pool.get pool p in
      let record = record t (Sim.now sim) node in
      match pkt.Packet.kind with
      | Packet.Pause -> record (Pause_rx { queue = pkt.Packet.ctrl_a })
      | Packet.Resume -> record (Resume_rx { queue = pkt.Packet.ctrl_a })
      | Packet.Pause_bitmap -> record (Bitmap_rx { paused = Array.length pkt.Packet.ints })
      | Packet.Pfc -> record (Pfc_rx { pause = pkt.Packet.ctrl_b = 1 })
      | Packet.Hop_credit ->
        record (Hop_credit_rx { queue = pkt.Packet.ctrl_a; bytes = pkt.Packet.ctrl_b })
      | Packet.Data | Packet.Ack | Packet.Nack | Packet.Credit | Packet.Credit_req | Packet.Grant
      | Packet.Cnp ->
        ());
  on Tap.Drop (fun _ p -> Dropped { flow = Packet.flow_id (Packet.Pool.get pool p) });
  on Tap.Watchdog (fun key _ -> Watchdog_fire { egress = Tap.egress key; queue = Tap.queue key });
  on Tap.Reboot (fun flushed _ -> Rebooted { flushed });
  on Tap.Link_down (fun gid _ -> Link_down { gid });
  on Tap.Link_up (fun gid _ -> Link_up { gid });
  t

let trace t = t

let events t =
  let out = ref [] in
  Trace.iter t (fun ~ts ~dur:_ ~name ~pid ~tid:_ ~a ~b ->
      out := { at = ts; node = pid; ev = decode ~name ~a ~b } :: !out);
  List.rev !out

let observed t = Trace.recorded t

let count t ~pred = List.length (List.filter pred (events t))

let pause_balance t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let p, r = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl e.node) in
      match e.ev with
      | Pause_rx _ -> Hashtbl.replace tbl e.node (p + 1, r)
      | Resume_rx _ -> Hashtbl.replace tbl e.node (p, r + 1)
      | Bitmap_rx _ | Pfc_rx _ | Hop_credit_rx _ | Dropped _ | Watchdog_fire _ | Link_down _
      | Link_up _ | Rebooted _ -> ())
    (events t);
  Hashtbl.fold (fun node (p, r) acc -> (node, p, r) :: acc) tbl []
  |> List.sort compare

let kind_to_string = function
  | Pause_rx { queue } -> Printf.sprintf "PAUSE   q=%d" queue
  | Resume_rx { queue } -> Printf.sprintf "RESUME  q=%d" queue
  | Bitmap_rx { paused } -> Printf.sprintf "BITMAP  paused=%d" paused
  | Pfc_rx { pause } -> if pause then "PFC     pause" else "PFC     resume"
  | Hop_credit_rx { queue; bytes } -> Printf.sprintf "CREDIT  q=%d +%dB" queue bytes
  | Dropped { flow } -> Printf.sprintf "DROP    flow=%d" flow
  | Watchdog_fire { egress; queue } ->
    if queue < 0 then Printf.sprintf "WDOG    egress=%d (pfc)" egress
    else Printf.sprintf "WDOG    egress=%d q=%d" egress queue
  | Link_down { gid } -> Printf.sprintf "LINK-   gid=%d" gid
  | Link_up { gid } -> Printf.sprintf "LINK+   gid=%d" gid
  | Rebooted { flushed } -> Printf.sprintf "REBOOT  flushed=%d" flushed

let render ?(limit = 50) t =
  let buf = Buffer.create 1024 in
  let evs = events t in
  let skip = max 0 (List.length evs - limit) in
  if skip > 0 then Buffer.add_string buf (Printf.sprintf "... (%d earlier events)\n" skip);
  List.iteri
    (fun i e ->
      if i >= skip then
        Buffer.add_string buf
          (Printf.sprintf "%10.3fus  node %-3d  %s\n" (Bfc_engine.Time.to_us e.at) e.node
             (kind_to_string e.ev)))
    evs;
  Buffer.contents buf
