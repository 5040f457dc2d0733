type t = {
  mutable id : int;
  mutable src : int;
  mutable dst : int;
  mutable size : int;
  mutable arrival : Bfc_engine.Time.t;
  mutable prio_class : int;
  mutable is_incast : bool;
  mutable delivered : int;
  mutable finish : Bfc_engine.Time.t;
  mutable first_byte : Bfc_engine.Time.t;
  mutable slot : int;
}

let make ~id ~src ~dst ~size ~arrival ?(prio_class = 0) ?(is_incast = false) () =
  if size <= 0 then invalid_arg "Flow.make: size must be positive";
  { id; src; dst; size; arrival; prio_class; is_incast; delivered = 0; finish = -1;
    first_byte = -1; slot = -1 }

let complete t = t.finish >= 0

let fct t =
  if not (complete t) then invalid_arg "Flow.fct: flow not complete";
  t.finish - t.arrival

let hash id =
  (* splitmix64 finalizer over the id; 30 bits out *)
  let z = Int64.add (Int64.of_int id) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.logand z 0x3FFFFFFFL)

module Table = struct
  type flow = t

  (* Slot [s] holds [recs.(s)]; [state] says whose it is: a caller's
     record, held for the run, or one of the table's own, live or parked
     on the [free] stack. *)
  type t = {
    mutable recs : flow array;
    mutable state : Bytes.t;
    mutable n : int;
    mutable free : int array;
    mutable n_free : int;
    mutable live : int;
    mutable high_water : int;
  }

  let callers = 'c'

  let live_own = 'l'

  let parked = 'p'

  let create () =
    { recs = [||]; state = Bytes.empty; n = 0; free = [||]; n_free = 0; live = 0; high_water = 0 }

  let get t slot = t.recs.(slot)

  let holds t ~slot ~id = slot >= 0 && slot < t.n && (Array.unsafe_get t.recs slot).id = id

  let live t = t.live

  let high_water t = t.high_water

  let append t f st =
    if t.n = Array.length t.recs then begin
      let cap = Int.max 64 (2 * t.n) in
      let recs = Array.make cap f in
      Array.blit t.recs 0 recs 0 t.n;
      t.recs <- recs;
      let state = Bytes.make cap parked in
      Bytes.blit t.state 0 state 0 t.n;
      t.state <- state
    end;
    t.recs.(t.n) <- f;
    Bytes.set t.state t.n st;
    f.slot <- t.n;
    t.n <- t.n + 1

  let add t f =
    let s = f.slot in
    if not (s >= 0 && s < t.n && t.recs.(s) == f) then append t f callers;
    f.slot

  let fresh t ~id ~src ~dst ~size ~arrival =
    if size <= 0 then invalid_arg "Flow.Table.fresh: size must be positive";
    t.live <- t.live + 1;
    if t.live > t.high_water then t.high_water <- t.live;
    if t.n_free = 0 then begin
      let f = make ~id ~src ~dst ~size ~arrival () in
      append t f live_own;
      f
    end
    else begin
      t.n_free <- t.n_free - 1;
      let s = t.free.(t.n_free) in
      Bytes.set t.state s live_own;
      let f = t.recs.(s) in
      f.id <- id;
      f.src <- src;
      f.dst <- dst;
      f.size <- size;
      f.arrival <- arrival;
      f.prio_class <- 0;
      f.is_incast <- false;
      f.delivered <- 0;
      f.finish <- -1;
      f.first_byte <- -1;
      f
    end

  let release t ~slot ~id =
    if holds t ~slot ~id && Bytes.get t.state slot = live_own then begin
      Bytes.set t.state slot parked;
      if t.n_free = Array.length t.free then begin
        let free = Array.make (Int.max 16 (2 * t.n_free)) 0 in
        Array.blit t.free 0 free 0 t.n_free;
        t.free <- free
      end;
      t.free.(t.n_free) <- slot;
      t.n_free <- t.n_free + 1;
      t.live <- t.live - 1
    end
end
