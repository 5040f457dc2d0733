(* Values in the slots of one growable array, an int free list, and an
   int-only id -> slot map. Slot 0 is never handed out, so the map reads
   0 for an unbound id. *)

type 'a t = {
  mutable vals : 'a array; (* length 0 until the first value *)
  mutable len : int; (* slots handed out so far, slot 0 included *)
  mutable free : int array;
  mutable nfree : int;
  ids : Int_table.Counter.t;
  mutable blanks : int;
}

let create () =
  { vals = [||]; len = 1; free = Array.make 16 0; nfree = 0; ids = Int_table.Counter.create (); blanks = 0 }

let find_exn t id =
  let s = Int_table.Counter.get t.ids id in
  if s = 0 then raise Not_found else t.vals.(s)

let blanks t = t.blanks

let release t s =
  if t.nfree = Array.length t.free then t.free <- Array.append t.free t.free;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1

(* A free slot, or 0 when none is. *)
let take t =
  if t.nfree = 0 then 0
  else begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end

let add t v =
  let s = t.len in
  if s >= Array.length t.vals then begin
    (* one new array: [Array.append] would build a second, as garbage *)
    let old = Array.length t.vals in
    let vals = Array.make (old + Int.max 16 s) v in
    Array.blit t.vals 0 vals 0 old;
    t.vals <- vals
  end;
  t.vals.(s) <- v;
  t.len <- s + 1;
  s

let blank t make =
  t.blanks <- t.blanks + 1;
  make ()

let acquire t ~id ~blank:make =
  let s = match take t with 0 -> add t (blank t make) | s -> s in
  Int_table.Counter.set t.ids id s;
  t.vals.(s)

let reclaim t ~id ~reusable ~blank:make =
  let s = Int_table.Counter.get t.ids id in
  if s > 0 then begin
    Int_table.Counter.remove t.ids id;
    if not (reusable t.vals.(s)) then t.vals.(s) <- blank t make;
    release t s
  end
