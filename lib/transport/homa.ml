module Dist = Bfc_workload.Dist
module Flow = Bfc_net.Flow

type params = {
  total_prios : int;
  unsched_prios : int;
  overcommit : int;
  rtt_bytes : int;
  cutoffs : int array;
}

let params_for ~dist ~total_prios ~rtt_bytes =
  (* Deterministic sampling of the workload to estimate the unscheduled
     byte fraction and the equal-mass cutoffs. *)
  let rng = Bfc_util.Rng.create 0x40A1 in
  let n = 100_000 in
  let sizes = Array.init n (fun _ -> Dist.sample dist rng) in
  Array.sort compare sizes;
  let unsched_of s = min s rtt_bytes in
  let total_bytes = Array.fold_left (fun a s -> a +. float_of_int s) 0.0 sizes in
  let unsched_bytes = Array.fold_left (fun a s -> a +. float_of_int (unsched_of s)) 0.0 sizes in
  let frac = unsched_bytes /. total_bytes in
  let unsched_prios =
    max 1 (min (total_prios - 1) (int_of_float (Float.round (frac *. float_of_int total_prios))))
  in
  (* Cutoffs: ascending size boundaries splitting unscheduled bytes evenly;
     priority 0 (highest) goes to the smallest messages. *)
  let cutoffs = Array.make (max 0 (unsched_prios - 1)) 0 in
  if unsched_prios > 1 then begin
    let per_level = unsched_bytes /. float_of_int unsched_prios in
    let acc = ref 0.0 in
    let level = ref 0 in
    Array.iter
      (fun s ->
        acc := !acc +. float_of_int (unsched_of s);
        if !level < unsched_prios - 1 && !acc >= per_level *. float_of_int (!level + 1) then begin
          cutoffs.(!level) <- s;
          incr level
        end)
      sizes
  end;
  { total_prios; unsched_prios; overcommit = total_prios - unsched_prios; rtt_bytes; cutoffs }

let unsched_prio p ~size =
  let rec go i = if i >= Array.length p.cutoffs then Array.length p.cutoffs else if size <= p.cutoffs.(i) then i else go (i + 1) in
  go 0

type grant = { g_flow : Flow.t; g_offset : int; g_prio : int }

module Receiver = struct
  type msg = { m_flow : Flow.t; mutable covered : int; mutable granted : int }

  type t = { p : params; msgs : (int, msg) Hashtbl.t }

  let create p = { p; msgs = Hashtbl.create 32 }

  let active t = Hashtbl.length t.msgs

  (* Re-evaluate the SRPT grant schedule; return new grants. The live
     message list comes out of a Hashtbl fold, so pipe it straight into a
     total-order sort (ties broken by flow id) to keep grant order
     reproducible across OCaml hash seeds. *)
  let reschedule t =
    let by_remaining =
      Hashtbl.fold (fun _ m acc -> m :: acc) t.msgs []
      |> List.sort (fun a b ->
             compare
               (a.m_flow.Flow.size - a.covered, a.m_flow.Flow.id)
               (b.m_flow.Flow.size - b.covered, b.m_flow.Flow.id))
    in
    let grants = ref [] in
    List.iteri
      (fun rank m ->
        if rank < t.p.overcommit then begin
          let desired = min m.m_flow.Flow.size (m.covered + t.p.rtt_bytes) in
          if desired > m.granted then begin
            m.granted <- desired;
            let prio = min (t.p.total_prios - 1) (t.p.unsched_prios + rank) in
            grants := { g_flow = m.m_flow; g_offset = desired; g_prio = prio } :: !grants
          end
        end)
      by_remaining;
    !grants

  let on_data t ~flow ~covered =
    let id = flow.Flow.id in
    let m =
      match Hashtbl.find_opt t.msgs id with
      | Some m -> m
      | None ->
        let m = { m_flow = flow; covered = 0; granted = min flow.Flow.size t.p.rtt_bytes } in
        Hashtbl.add t.msgs id m;
        m
    in
    m.covered <- max m.covered covered;
    if m.covered >= flow.Flow.size then Hashtbl.remove t.msgs id;
    reschedule t
end
