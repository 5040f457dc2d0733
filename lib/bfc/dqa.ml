type policy = Dynamic | Stochastic | Single

type t = {
  policy : policy;
  queues : int;
  empty : Bfc_util.Bitset.t array;
  rot : int array; (* rotating scan start per egress *)
  rng : Bfc_util.Rng.t;
}

let create ~egresses ~queues ~policy ~rng =
  if queues <= 0 then invalid_arg "Dqa.create: queues";
  let empty =
    Array.init egresses (fun _ ->
        let b = Bfc_util.Bitset.create queues in
        Bfc_util.Bitset.fill b;
        b)
  in
  { policy; queues; empty; rot = Array.make (max 1 egresses) 0; rng }

let assign t ~egress ~fid_hash =
  match t.policy with
  | Single -> 0
  | Stochastic -> fid_hash mod t.queues
  | Dynamic -> (
    let q = Bfc_util.Bitset.first_set t.empty.(egress) ~from:t.rot.(egress) in
    if q >= 0 then begin
      t.rot.(egress) <- q + 1;
      q
    end
    else Bfc_util.Rng.int t.rng t.queues)

let mark_empty t ~egress ~queue = Bfc_util.Bitset.set t.empty.(egress) queue

let mark_occupied t ~egress ~queue = Bfc_util.Bitset.clear t.empty.(egress) queue

let empty_count t ~egress = Bfc_util.Bitset.cardinal t.empty.(egress)

let is_empty_queue t ~egress ~queue = Bfc_util.Bitset.mem t.empty.(egress) queue

let reset t =
  Array.iter Bfc_util.Bitset.fill t.empty;
  Array.fill t.rot 0 (Array.length t.rot) 0
