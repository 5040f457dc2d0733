(* Unit and property tests for Bfc_util. *)

module Rng = Bfc_util.Rng
module Wheel = Bfc_util.Wheel
module Int_table = Bfc_util.Int_table
module Bitset = Bfc_util.Bitset
module Stats = Bfc_util.Stats

let check = Alcotest.check
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ------------------------------- Rng ------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.bits a) (Rng.bits b)
  done

(* The splitmix64 stream is pinned: every workload, fixture and digest
   draws from it, so a change of representation must not change a bit. *)
let test_rng_golden_stream () =
  let r = Rng.create 42 in
  let draws n f = List.init n (fun _ -> f ()) in
  check (Alcotest.list Alcotest.int) "bits"
    [ -2383643270477138102; 1474913046063446145; 2569641874231381929 ]
    (draws 3 (fun () -> Rng.bits r));
  check (Alcotest.list Alcotest.int) "int 7 (rejects negative draws)" [ 1; 3; 4; 6; 2; 3 ]
    (draws 6 (fun () -> Rng.int r 7));
  check (Alcotest.list Alcotest.int) "int 8" [ 3; 3; 6; 1; 2; 6 ] (draws 6 (fun () -> Rng.int r 8));
  checkf "float" 0.09342765535316888 (Rng.float r)

(* A draw allocates nothing, with or without cross-module inlining (the
   release and dev profiles): the state is unboxed and the rejection loop
   is a top-level function. The loop is measured against an empty one, so
   the words [Gc.minor_words] itself boxes cancel out. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create 5 in
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 100_000 do
      ignore (Sys.opaque_identity (f r))
    done;
    Gc.minor_words () -. w0
  in
  let base = words (fun _ -> 0) in
  List.iter
    (fun (name, f) -> checkf (name ^ ": minor words over 100,000 draws") 0.0 (words f -. base))
    [
      ("Rng.int 7", fun r -> Rng.int r 7);
      ("Rng.int 8", fun r -> Rng.int r 8);
      ("Rng.bits", Rng.bits);
    ]

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits a = Rng.bits b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_copy () =
  let a = Rng.create 9 in
  ignore (Rng.bits a);
  let b = Rng.copy a in
  check Alcotest.int "copy continues identically" (Rng.bits a) (Rng.bits b)

let test_rng_int_range () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let r = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_range () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_exponential_mean () =
  let r = Rng.create 11 in
  let n = 100_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential r ~mean:5.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean ~5" true (Float.abs (mean -. 5.0) < 0.15)

let test_rng_lognormal_mean () =
  let r = Rng.create 13 in
  let n = 200_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.lognormal_mean r ~mean:10.0 ~sigma:1.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean ~10 (got %f)" mean)
    true
    (Float.abs (mean -. 10.0) < 0.5)

let test_rng_normal_moments () =
  let r = Rng.create 17 in
  let n = 100_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.normal r in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~0" true (Float.abs mean < 0.02);
  Alcotest.(check bool) "var ~1" true (Float.abs (var -. 1.0) < 0.05)

let test_rng_int_extreme_bounds () =
  (* Powers of two take the mask path, [max_int] (not a power of two on
     63-bit ints) exercises rejection sampling on the widest bound. *)
  let r = Rng.create 41 in
  List.iter
    (fun n ->
      for _ = 1 to 1_000 do
        let v = Rng.int r n in
        Alcotest.(check bool) (Printf.sprintf "in [0,%d)" n) true (v >= 0 && v < n)
      done)
    [ 1; 2; 4; 64; 1 lsl 30; 1 lsl 61; max_int ]

let test_rng_int_bound_one () =
  let r = Rng.create 43 in
  for _ = 1 to 100 do
    check Alcotest.int "bound 1 is always 0" 0 (Rng.int r 1)
  done

let test_rng_bernoulli_invalid () =
  let r = Rng.create 47 in
  List.iter
    (fun (p, msg) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (Rng.bernoulli r p)))
    [
      (-0.1, "Rng.bernoulli: probability -0.1 not in [0, 1]");
      (1.5, "Rng.bernoulli: probability 1.5 not in [0, 1]");
      (Float.nan, "Rng.bernoulli: probability nan not in [0, 1]");
    ]

let test_rng_bernoulli_endpoints () =
  let r = Rng.create 53 in
  let before = Rng.copy r in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli r 0.0);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli r 1.0)
  done;
  (* The documented contract: degenerate coins leave the stream untouched. *)
  check Alcotest.int "endpoints consume no randomness" (Rng.bits before) (Rng.bits r)

let test_rng_shuffle_permutation () =
  let r = Rng.create 23 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 50 (fun i -> i)) sorted

(* ------------------------------ Wheel ------------------------------ *)

(* Entries carry their value in [a0]. FIFO-rank push for the tests that
   do not remove entries, and a pop that reads the popped record. *)
let wpush w p v = ignore (Wheel.push w ~rank:0 ~priority:p ~cls:0 ~a0:v ~a1:0 : int)

let wpop w = Wheel.a0 w (Wheel.pop_min_exn w)

let drain_all w =
  let out = ref [] in
  while Wheel.length w > 0 do
    out := wpop w :: !out
  done;
  List.rev !out

let test_wheel_order () =
  let w = Wheel.create () in
  List.iter (fun p -> wpush w p p) [ 5; 3; 8; 1; 9; 2 ];
  check Alcotest.(list int) "sorted ascending" [ 1; 2; 3; 5; 8; 9 ] (drain_all w)

let test_wheel_fifo_ties () =
  let w = Wheel.create () in
  List.iter (fun v -> wpush w 7 v) [ 11; 12; 13 ];
  check Alcotest.int "fifo a" 11 (wpop w);
  check Alcotest.int "fifo b" 12 (wpop w);
  check Alcotest.int "fifo c" 13 (wpop w)

let test_wheel_head_time () =
  let w = Wheel.create () in
  check Alcotest.int "empty head" (-1) (Wheel.head_time w);
  wpush w 42 0;
  check Alcotest.int "head" 42 (Wheel.head_time w);
  check Alcotest.int "head does not pop" 1 (Wheel.length w);
  ignore (wpop w);
  check Alcotest.int "drained" (-1) (Wheel.head_time w);
  Alcotest.check_raises "pop on empty" Wheel.Empty (fun () -> ignore (Wheel.pop_min_exn w))

(* A reserve grows the slab once, to the capacity the pushes alone would
   reach, and changes nothing about what pops: twin wheels, one reserving
   before each batch, must agree on capacity and pop order, with records
   already on the free list (from earlier pops) still handed out. *)
let test_wheel_reserve () =
  let plain = Wheel.create () and reserved = Wheel.create () in
  let batch n p0 =
    Wheel.reserve reserved n;
    let cap = Wheel.capacity reserved in
    for i = 0 to n - 1 do
      let p = p0 + ((i * 7919) mod 1000) in
      wpush plain p (p0 + i);
      wpush reserved p (p0 + i)
    done;
    check Alcotest.int "no growth after the reserve" cap (Wheel.capacity reserved);
    check Alcotest.int "capacity" (Wheel.capacity plain) (Wheel.capacity reserved)
  in
  let pop_both k =
    for _ = 1 to k do
      check Alcotest.int "pop order" (wpop plain) (wpop reserved)
    done
  in
  batch 300 0;
  pop_both 250;
  batch 40 1000;
  batch 900 2000;
  Wheel.reserve reserved 0;
  check Alcotest.int "reserve 0" (Wheel.capacity plain) (Wheel.capacity reserved);
  check Alcotest.(list int) "drain" (drain_all plain) (drain_all reserved)

let test_wheel_cascade_far_future () =
  (* deadlines spanning several digit levels, far beyond level 0 *)
  let w = Wheel.create () in
  let times = [ 0; 255; 256; 65_535; 65_536; 16_777_216; 1 lsl 40; (1 lsl 40) + 1 ] in
  List.iter (fun p -> wpush w p p) (List.rev times);
  check Alcotest.(list int) "cascades in order" times (drain_all w)

let test_wheel_push_below_cursor () =
  (* peek far ahead (advancing the cursor), then push nearer-term work:
     the Sim.run pattern where flows are injected between run windows *)
  let w = Wheel.create () in
  wpush w 10_000 10_000;
  check Alcotest.int "cursor ahead" 10_000 (Wheel.head_time w);
  wpush w 10_000 10_000;
  wpush w 9_999 9_999;
  check Alcotest.int "staged below cursor" 9_999 (wpop w);
  check Alcotest.int "then first 10k" 10_000 (wpop w);
  check Alcotest.int "then second 10k" 10_000 (wpop w);
  check Alcotest.int "empty" 0 (Wheel.length w)

(* Remove the head, the tail and a middle entry of one bucket, then push
   into the same bucket again: the survivors and the newcomer pop in
   order, [length] follows, and a removed id is refused. Done on the
   cursor bucket and on an upper-level bucket before it cascades (its
   same-deadline entries must keep their order through the cascade). *)
let test_wheel_remove () =
  let case what ~cursor times =
    let w = Wheel.create () in
    let ids = List.mapi (fun v p -> Wheel.push w ~rank:0 ~priority:p ~cls:0 ~a0:v ~a1:0) times in
    if cursor then
      check Alcotest.int (what ^ ": cursor on the bucket") (List.hd times) (Wheel.head_time w);
    let id = Array.of_list ids and last = List.length times - 1 in
    List.iter
      (fun v ->
        check Alcotest.int (what ^ ": the entry holds its payload") v (Wheel.a0 w id.(v));
        Wheel.remove w id.(v);
        check Alcotest.int (what ^ ": a removed entry keeps its payload") v (Wheel.a0 w id.(v)))
      [ 0; last; last / 2 ];
    check Alcotest.int (what ^ ": length") (last - 2) (Wheel.length w);
    Alcotest.check_raises (what ^ ": removed id refused")
      (Invalid_argument "Wheel.remove: not a resident entry") (fun () ->
        Wheel.remove w id.(0));
    let p = List.hd times in
    wpush w p 99;
    (* survivors by deadline, push order among equal deadlines, and the
       newcomer last among its deadline *)
    let expected =
      List.mapi (fun v p -> (p, v)) times
      |> List.filteri (fun v _ -> v <> 0 && v <> last && v <> last / 2)
      |> (fun l -> l @ [ (p, 99) ])
      |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd
    in
    check Alcotest.(list int) (what ^ ": pop order") expected (drain_all w)
  in
  case "cursor bucket" ~cursor:true [ 500; 500; 500; 500; 500; 500; 500 ];
  case "upper bucket" ~cursor:false [ 70_000; 70_001; 70_000; 70_002; 70_000; 70_001; 70_000 ];
  (* removing the whole cursor bucket moves the head on *)
  let w = Wheel.create () in
  let a = Wheel.push w ~rank:0 ~priority:10 ~cls:0 ~a0:1 ~a1:0 in
  wpush w 20 2;
  check Alcotest.int "head at 10" 10 (Wheel.head_time w);
  Wheel.remove w a;
  check Alcotest.int "head moves to 20" 20 (Wheel.head_time w);
  check Alcotest.(list int) "only the survivor pops" [ 2 ] (drain_all w)

(* Any monotone-nondecreasing push/pop trace pops in priority-queue
   (heap) order: smallest deadline first, FIFO among equal deadlines.
   Values encode (deadline, uid), so the sorted resident list is the
   oracle and its head is the next pop. *)
let prop_wheel_heap_order =
  QCheck.Test.make ~name:"wheel pops in heap order" ~count:300
    QCheck.(list (pair (int_range 0 5000) (int_range 0 3)))
    (fun ops ->
      let w = Wheel.create () in
      let model = ref [] and ok = ref true in
      let uid = ref 0 and floor = ref 0 in
      let pop () =
        match !model with
        | v :: rest ->
          if wpop w <> v then ok := false;
          model := rest;
          floor := max !floor (v lsr 16)
        | [] -> ()
      in
      List.iter
        (fun (dt, act) ->
          if act = 0 && !model <> [] then pop ()
          else begin
            incr uid;
            let p = !floor + dt in
            let v = (p lsl 16) lor (!uid land 0xFFFF) in
            wpush w p v;
            model := List.merge compare [ v ] !model
          end)
        ops;
      while !model <> [] do
        pop ()
      done;
      Wheel.length w = 0 && !ok)

(* Reference model of the wheel: the resident entries as a list of
   (time, rank, seq) kept sorted, which is the whole ordering contract.
   Ops (op, a, b), with the Sim's legal rank shapes: a [push] ranks
   (instant, key b), bursts of keys within an instant included; op 3
   pushes and then advances the instant, ending the burst. Values are
   their seq numbers.
   Ops 8 and 9 [remove] a random resident entry, which the model deletes;
   a drain callback may remove one too, as a Sim executor cancelling
   another event does. Every pop, drain callback and head probe must
   match the model's head exactly, the wheel's length must match the
   model's size, and the slab must stay within twice the peak length.
   Every pushed entry leaves exactly once, by a pop or by a [remove]: an
   owner that recycles ids (Sim) relies on that. It leaves from the
   record it was pushed into, with its whole payload (cls = seq land 15,
   a0 = seq, a1 = lnot seq) and the record's generation one past its
   value at the push. *)
let prop_wheel_matches_model =
  QCheck.Test.make ~name:"wheel matches sorted-list model" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 400)
              (triple (int_range 0 9) (int_range 0 5000) (int_range 0 15)))
    (fun ops ->
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let model = ref [] and entry = Hashtbl.create 16 and left = Hashtbl.create 16 in
      let w = Wheel.create () in
      let leave e =
        let v = Wheel.a0 w e in
        if Hashtbl.mem left v then fail "id %d left the wheel twice" v;
        (match Hashtbl.find_opt entry v with
        | Some (e', g) ->
          if e' <> e then fail "id %d left from record %d, pushed into %d" v e e';
          if Wheel.cls w e <> v land 15 || Wheel.a1 w e <> lnot v then
            fail "record of %d lost its payload" v;
          if Wheel.gen w e <> g + 1 then
            fail "record of %d left at generation %d, pushed at %d" v (Wheel.gen w e) g
        | None -> fail "id %d was never pushed" v);
        Hashtbl.add left v ();
        Hashtbl.remove entry v;
        v
      in
      let seq = ref 0 and floor = ref 0 and instant = ref 1 and peak = ref 0 in
      let push time rank =
        let cls = !seq land 15 and a0 = !seq and a1 = lnot !seq in
        let e = Wheel.push w ~rank ~priority:time ~cls ~a0 ~a1 in
        Hashtbl.replace entry !seq (e, Wheel.gen w e);
        model := List.sort compare ((time, rank, !seq) :: !model);
        peak := Int.max !peak (List.length !model);
        incr seq
      in
      let take e =
        let v = leave e in
        match !model with
        | (t, _, s) :: rest when s = v -> model := rest; floor := t
        | _ -> fail "popped %d out of model order" v
      in
      let remove_nth i =
        match !model with
        | [] -> ()
        | m ->
          let _, _, s = List.nth m (i mod List.length m) in
          let e, _ = Hashtbl.find entry s in
          Wheel.remove w e;
          if leave e <> s then fail "entry of %d removed another" s;
          model := List.filter (fun (_, _, s') -> s' <> s) !model
      in
      let model_head () = match !model with (t, _, _) :: _ -> t | [] -> -1 in
      List.iter
        (fun (op, a, b) ->
          (match op with
          | 0 -> push (!floor + (a land 7)) ((!instant lsl 4) lor b)
          | 1 -> push (!floor + a) ((!instant lsl 4) lor b)
          | 2 -> push (!floor + (a lsl 12)) ((!instant lsl 4) lor b)
          | 3 ->
            push (!floor + a) ((!instant lsl 4) lor b);
            incr instant
          | 4 -> incr instant
          | 5 ->
            let h = Wheel.head_time w in
            if h <> model_head () then fail "head_time %d, model %d" h (model_head ())
          | 6 -> (
            match Wheel.pop_min_exn w with
            | e -> take e
            | exception Wheel.Empty -> if !model <> [] then fail "Empty with model entries")
          | 7 ->
            let time = Wheel.head_time w in
            (* bounds equal to a resident rank half the time *)
            let bound =
              match !model with
              | _ :: _ when b land 1 = 0 ->
                let _, r, _ = List.nth !model (a mod List.length !model) in
                r
              | _ -> ((a mod (!instant + 1)) lsl 4) lor b
            in
            let calls = ref 0 in
            let n =
              Wheel.drain_run w ~time ~rank_bound:bound (fun e ->
                  let v = Wheel.a0 w e in
                  (match !model with
                  | (t, r, _) :: _ when t = time && (!calls = 0 || r < bound) -> ()
                  | _ -> fail "drained %d outside the batch" v);
                  incr calls;
                  take e;
                  if b land 2 = 2 then remove_nth (a + !calls))
            in
            if n <> !calls then fail "drain_run returned %d after %d callbacks" n !calls;
            (match !model with
            | (t, r, _) :: _ when time >= 0 && t = time && r < bound -> fail "batch not maximal"
            | _ -> ())
          | _ -> remove_nth a);
          if Wheel.length w <> List.length !model then
            fail "length %d, model %d" (Wheel.length w) (List.length !model);
          if Wheel.capacity w > Int.max 64 (2 * !peak) then
            fail "capacity %d for a peak of %d" (Wheel.capacity w) !peak)
        ops;
      while Wheel.length w > 0 do
        match Wheel.pop_min_exn w with e -> take e | exception Wheel.Empty -> ()
      done;
      if Hashtbl.length left <> !seq then
        fail "%d of %d ids left the wheel" (Hashtbl.length left) !seq;
      !model = [])

(* ---------------------------- Int_table ---------------------------- *)

let test_int_table_basic () =
  let t = Int_table.Counter.create () in
  check Alcotest.int "empty" 0 (Int_table.Counter.length t);
  List.iter (Int_table.Counter.incr t) [ 7; 0; -3; 7 ];
  check Alcotest.int "three" 3 (Int_table.Counter.length t);
  check Alcotest.int "find 7" 2 (Int_table.Counter.get t 7);
  check Alcotest.int "find -3" 1 (Int_table.Counter.get t (-3));
  check Alcotest.int "miss reads 0" 0 (Int_table.Counter.get t 99);
  Int_table.Counter.decr t 7;
  check Alcotest.int "decrement keeps count" 3 (Int_table.Counter.length t);
  Int_table.Counter.decr t 7;
  check Alcotest.int "removed" 0 (Int_table.Counter.get t 7);
  Int_table.Counter.decr t 99 (* absent: no-op *);
  check Alcotest.int "two left" 2 (Int_table.Counter.length t);
  Int_table.Counter.reset t;
  check Alcotest.int "reset" 0 (Int_table.Counter.length t);
  check Alcotest.int "reset misses" 0 (Int_table.Counter.get t 0)

let test_int_table_growth () =
  let t = Int_table.Counter.create ~size:4 () in
  for k = 0 to 9_999 do
    for _ = 0 to k mod 3 do
      Int_table.Counter.incr t (k * 31)
    done
  done;
  check Alcotest.int "count" 10_000 (Int_table.Counter.length t);
  for k = 0 to 9_999 do
    assert (Int_table.Counter.get t (k * 31) = (k mod 3) + 1)
  done

(* model check vs Hashtbl, exercising backward-shift deletion under
   collision-heavy keys *)
let prop_int_table_model =
  QCheck.Test.make ~name:"int_table matches Hashtbl model" ~count:300
    QCheck.(list (pair (int_range 0 40) bool))
    (fun ops ->
      let t = Int_table.Counter.create ~size:4 () in
      let m = Hashtbl.create 16 in
      List.iter
        (fun (k, up) ->
          let n = Option.value (Hashtbl.find_opt m k) ~default:0 in
          if up then begin
            Int_table.Counter.incr t k;
            Hashtbl.replace m k (n + 1)
          end
          else begin
            Int_table.Counter.decr t k;
            if n > 1 then Hashtbl.replace m k (n - 1) else Hashtbl.remove m k
          end)
        ops;
      Int_table.Counter.length t = Hashtbl.length m
      && Hashtbl.fold (fun k v acc -> acc && Int_table.Counter.get t k = v) m true)

let test_counter_semantics () =
  let c = Int_table.Counter.create () in
  check Alcotest.int "absent reads 0" 0 (Int_table.Counter.get c 5);
  Int_table.Counter.incr c 5;
  Int_table.Counter.incr c 5;
  Int_table.Counter.incr c 9;
  check Alcotest.int "two keys" 2 (Int_table.Counter.length c);
  check Alcotest.int "count 5" 2 (Int_table.Counter.get c 5);
  Int_table.Counter.decr c 5;
  check Alcotest.int "decremented" 1 (Int_table.Counter.get c 5);
  Int_table.Counter.decr c 5;
  check Alcotest.int "zero removes key" 1 (Int_table.Counter.length c);
  Int_table.Counter.decr c 5 (* absent: no-op *);
  Int_table.Counter.decr c 77 (* never present: no-op *);
  check Alcotest.int "still one key" 1 (Int_table.Counter.length c);
  Int_table.Counter.reset c;
  check Alcotest.int "reset" 0 (Int_table.Counter.length c)

(* ------------------------------ Bitset ----------------------------- *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Alcotest.(check bool) "initially clear" false (Bitset.mem b 50);
  Bitset.set b 50;
  Alcotest.(check bool) "set" true (Bitset.mem b 50);
  check Alcotest.int "cardinal" 1 (Bitset.cardinal b);
  Bitset.set b 50;
  check Alcotest.int "idempotent set" 1 (Bitset.cardinal b);
  Bitset.clear b 50;
  Alcotest.(check bool) "cleared" false (Bitset.mem b 50);
  check Alcotest.int "cardinal zero" 0 (Bitset.cardinal b)

let test_bitset_first_set_rotation () =
  let b = Bitset.create 8 in
  Bitset.set b 2;
  Bitset.set b 6;
  check Alcotest.int "from 0" 2 (Bitset.first_set b ~from:0);
  check Alcotest.int "from 3" 6 (Bitset.first_set b ~from:3);
  check Alcotest.int "wraps" 2 (Bitset.first_set b ~from:7);
  Bitset.clear b 2;
  Bitset.clear b 6;
  check Alcotest.int "empty" (-1) (Bitset.first_set b ~from:0)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of range") (fun () ->
      Bitset.set b (-1));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: index out of range") (fun () ->
      ignore (Bitset.mem b 10))

let test_bitset_fill () =
  let b = Bitset.create 65 in
  Bitset.fill b;
  check Alcotest.int "all set" 65 (Bitset.cardinal b);
  check Alcotest.bool "every index set" true (List.for_all (Bitset.mem b) (List.init 65 Fun.id))

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset matches a reference set" ~count:200
    QCheck.(list (pair bool (int_range 0 63)))
    (fun ops ->
      let b = Bitset.create 64 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (set, i) ->
          if set then begin
            Bitset.set b i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.clear b i;
            Hashtbl.remove model i
          end)
        ops;
      Bitset.cardinal b = Hashtbl.length model
      && List.for_all (fun i -> Bitset.mem b i = Hashtbl.mem model i) (List.init 64 (fun i -> i)))

(* ------------------------------ Stats ------------------------------ *)

let test_stats_basic () =
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  checkf "mean" 3.0 (Stats.Sample.mean s);
  checkf "max" 5.0 (Stats.Sample.max s);
  checkf "p0" 1.0 (Stats.Sample.percentile s 0.0);
  checkf "p100" 5.0 (Stats.Sample.percentile s 100.0);
  checkf "p50" 3.0 (Stats.Sample.percentile s 50.0);
  checkf "p25 interp" 2.0 (Stats.Sample.percentile s 25.0)

let test_stats_empty () =
  let s = Stats.Sample.create () in
  Alcotest.(check bool) "empty" true (Stats.Sample.is_empty s);
  Alcotest.check_raises "percentile empty"
    (Invalid_argument "Stats.Sample.percentile: empty sample") (fun () ->
      ignore (Stats.Sample.percentile s 50.0))

let test_stats_stddev () =
  let s = Stats.Sample.create () in
  List.iter (Stats.Sample.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check bool) "stddev ~2.138" true (Float.abs (Stats.Sample.stddev s -. 2.138) < 0.01)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within [min,max] and is monotone" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Stats.Sample.create () in
      List.iter (Stats.Sample.add s) xs;
      let lo = List.fold_left Float.min infinity xs and hi = Stats.Sample.max s in
      let ps = [ 0.0; 10.0; 50.0; 90.0; 99.0; 100.0 ] in
      let vals = List.map (Stats.Sample.percentile s) ps in
      List.for_all (fun v -> v >= lo -. 1e-9 && v <= hi +. 1e-9) vals
      && List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 5) vals) (List.tl vals))

(* --------------------------- Ascii table --------------------------- *)

let test_ascii_table () =
  let out = Bfc_util.Ascii_table.render ~header:[ "a"; "bb" ] [ [ "xxx"; "y" ]; [ "1"; "22" ] ] in
  Alcotest.(check bool) "contains header" true (String.length out > 0);
  let lines = String.split_on_char '\n' out in
  check Alcotest.int "4 lines + trailing" 5 (List.length lines)

let test_float_cell () =
  check Alcotest.string "nan" "-" (Bfc_util.Ascii_table.float_cell nan);
  check Alcotest.string "zero" "0" (Bfc_util.Ascii_table.float_cell 0.0);
  check Alcotest.string "mid" "3.14" (Bfc_util.Ascii_table.float_cell 3.14159)

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng golden stream", `Quick, test_rng_golden_stream);
    ("rng draws allocate nothing", `Quick, test_rng_draws_allocate_nothing);
    ("rng copy", `Quick, test_rng_copy);
    ("rng int range", `Quick, test_rng_int_range);
    ("rng int invalid", `Quick, test_rng_int_invalid);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng exponential mean", `Quick, test_rng_exponential_mean);
    ("rng lognormal mean", `Quick, test_rng_lognormal_mean);
    ("rng normal moments", `Quick, test_rng_normal_moments);
    ("rng int extreme bounds", `Quick, test_rng_int_extreme_bounds);
    ("rng int bound one", `Quick, test_rng_int_bound_one);
    ("rng bernoulli invalid", `Quick, test_rng_bernoulli_invalid);
    ("rng bernoulli endpoints", `Quick, test_rng_bernoulli_endpoints);
    ("rng shuffle", `Quick, test_rng_shuffle_permutation);
    ("wheel order", `Quick, test_wheel_order);
    ("wheel fifo ties", `Quick, test_wheel_fifo_ties);
    ("wheel head_time", `Quick, test_wheel_head_time);
    ("wheel reserve", `Quick, test_wheel_reserve);
    ("wheel cascade far future", `Quick, test_wheel_cascade_far_future);
    ("wheel push below cursor", `Quick, test_wheel_push_below_cursor);
    ("wheel remove head, tail and middle", `Quick, test_wheel_remove);
    ("int_table basic", `Quick, test_int_table_basic);
    ("int_table growth", `Quick, test_int_table_growth);
    ("int_table counter", `Quick, test_counter_semantics);
    ("bitset basic", `Quick, test_bitset_basic);
    ("bitset rotation", `Quick, test_bitset_first_set_rotation);
    ("bitset bounds", `Quick, test_bitset_bounds);
    ("bitset fill", `Quick, test_bitset_fill);
    ("stats basic", `Quick, test_stats_basic);
    ("stats empty", `Quick, test_stats_empty);
    ("stats stddev", `Quick, test_stats_stddev);
    ("ascii table", `Quick, test_ascii_table);
    ("float cell", `Quick, test_float_cell);
    QCheck_alcotest.to_alcotest prop_wheel_heap_order;
    QCheck_alcotest.to_alcotest prop_wheel_matches_model;
    QCheck_alcotest.to_alcotest prop_int_table_model;
    QCheck_alcotest.to_alcotest prop_bitset_model;
    QCheck_alcotest.to_alcotest prop_percentile_bounds;
  ]
