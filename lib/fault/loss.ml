module Packet = Bfc_net.Packet

type mode =
  | Prob of float
  | Nth of { n : int; mutable seen : int } (* drop exactly the nth match *)

type rule = {
  matches : Packet.t -> bool;
  mode : mode;
  corrupt : bool;
}

type t = {
  rng : Bfc_util.Rng.t;
  mutable rules : rule list; (* evaluation order = addition order *)
  mutable dropped : int;
  mutable corrupted : int;
}

let create ~seed = { rng = Bfc_util.Rng.create seed; rules = []; dropped = 0; corrupted = 0 }

(* Matchers *)

let data pkt = Packet.kind pkt = Packet.Data

let ctrl pkt =
  match Packet.kind pkt with
  | Packet.Pause | Packet.Resume | Packet.Pause_bitmap | Packet.Pfc -> true
  | _ -> false

let kind k pkt = Packet.kind pkt = k

let resumes = kind Packet.Resume

let add t rule = t.rules <- t.rules @ [ rule ]

let add_prob t ?(corrupt = false) ~p matches =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Loss.add_prob: probability not in [0, 1]";
  add t { matches; mode = Prob p; corrupt }

let add_nth t ?(corrupt = false) ~n matches =
  if n <= 0 then invalid_arg "Loss.add_nth: n";
  add t { matches; mode = Nth { n; seen = 0 }; corrupt }

(* First matching rule that fires wins; rules that match but do not fire
   still consume their position in the deterministic counters, so an Nth
   rule counts every match it sees regardless of other rules. *)
let decide t pkt =
  let lost = ref false in
  List.iter
    (fun r ->
      if r.matches pkt then begin
        let fire =
          match r.mode with
          | Prob p -> Bfc_util.Rng.bernoulli t.rng p
          | Nth s ->
            s.seen <- s.seen + 1;
            s.seen = s.n
        in
        if fire && not !lost then begin
          lost := true;
          if r.corrupt then t.corrupted <- t.corrupted + 1 else t.dropped <- t.dropped + 1
        end
      end)
    t.rules;
  !lost

let corrupted t = t.corrupted

let total t = t.dropped + t.corrupted
