type t = {
  id : int;
  src : int;
  dst : int;
  size : int;
  arrival : Bfc_engine.Time.t;
  prio_class : int;
  is_incast : bool;
  mutable delivered : int;
  mutable finish : Bfc_engine.Time.t;
  mutable first_byte : Bfc_engine.Time.t;
}

let make ~id ~src ~dst ~size ~arrival ?(prio_class = 0) ?(is_incast = false) () =
  if size <= 0 then invalid_arg "Flow.make: size must be positive";
  { id; src; dst; size; arrival; prio_class; is_incast; delivered = 0; finish = -1; first_byte = -1 }

let complete t = t.finish >= 0

let fct t =
  if not (complete t) then invalid_arg "Flow.fct: flow not complete";
  t.finish - t.arrival

let hash t =
  (* splitmix64 finalizer over the id; 30 bits out *)
  let z = Int64.add (Int64.of_int t.id) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.logand z 0x3FFFFFFFL)
