(* Struct-of-arrays record storage: recording an event is seven int stores
   (plus amortized growth in unbounded mode), so tracing perturbs the
   simulation as little as possible. [absent] marks an unused argument. *)

let absent = min_int

let absent_arg = absent

type t = {
  capacity : int; (* <= 0: unbounded *)
  mutable ts : int array;
  mutable dur : int array; (* -1 = instant *)
  mutable name : int array;
  mutable pid : int array;
  mutable tid : int array;
  mutable a : int array;
  mutable b : int array;
  mutable next : int; (* ring cursor (bounded) / append cursor (unbounded) *)
  mutable count : int; (* buffered records *)
  mutable recorded : int; (* total ever *)
  (* interned names with their two arg keys *)
  mutable names : string array;
  mutable akeys : string array;
  mutable bkeys : string array;
  mutable n_names : int;
}

let create ?(capacity = 0) () =
  let cap = if capacity > 0 then capacity else 1024 in
  {
    capacity;
    ts = Array.make cap 0;
    dur = Array.make cap 0;
    name = Array.make cap 0;
    pid = Array.make cap 0;
    tid = Array.make cap 0;
    a = Array.make cap absent;
    b = Array.make cap absent;
    next = 0;
    count = 0;
    recorded = 0;
    names = [||];
    akeys = [||];
    bkeys = [||];
    n_names = 0;
  }

(* probe registration; bfc-lint: control-plane *)
let intern t ?(akey = "a") ?(bkey = "b") nm =
  let rec scan i = if i >= t.n_names then -1 else if t.names.(i) = nm then i else scan (i + 1) in
  match scan 0 with
  | i when i >= 0 -> i
  | _ ->
    let i = t.n_names in
    if i >= Array.length t.names then begin
      let grow a fill = Array.append a (Array.make (max 8 (i + 1)) fill) in
      t.names <- grow t.names "";
      t.akeys <- grow t.akeys "";
      t.bkeys <- grow t.bkeys ""
    end;
    t.names.(i) <- nm;
    t.akeys.(i) <- akey;
    t.bkeys.(i) <- bkey;
    t.n_names <- i + 1;
    i

let name t i = t.names.(i)

let grow t =
  let cap = Array.length t.ts in
  let ncap = cap * 2 in
  let g a fill =
    let n = Array.make ncap fill in
    Array.blit a 0 n 0 cap;
    n
  in
  t.ts <- g t.ts 0;
  t.dur <- g t.dur 0;
  t.name <- g t.name 0;
  t.pid <- g t.pid 0;
  t.tid <- g t.tid 0;
  t.a <- g t.a absent;
  t.b <- g t.b absent

(* Oldest record: in a wrapped ring it sits at the cursor; otherwise 0. *)
let iter t f =
  let cap = Array.length t.ts in
  let start = if t.capacity > 0 && t.recorded > t.count then t.next else 0 in
  for k = 0 to t.count - 1 do
    let i = (start + k) mod cap in
    let opt v = if v = absent then None else Some v in
    f ~ts:t.ts.(i) ~dur:t.dur.(i) ~name:t.name.(i) ~pid:t.pid.(i) ~tid:t.tid.(i)
      ~a:(opt t.a.(i)) ~b:(opt t.b.(i))
  done

(* bfc-lint: control-plane *)
let args_json t ~name ~a ~b =
  match (a, b) with
  | None, None -> ""
  | Some a, None -> Printf.sprintf ",\"args\":{\"%s\":%d}" t.akeys.(name) a
  | None, Some b -> Printf.sprintf ",\"args\":{\"%s\":%d}" t.bkeys.(name) b
  | Some a, Some b ->
    Printf.sprintf ",\"args\":{\"%s\":%d,\"%s\":%d}" t.akeys.(name) a t.bkeys.(name) b

let record t ~ts ~dur ~name ~pid ~tid ~a ~b =
  if t.capacity <= 0 && t.next = Array.length t.ts then grow t;
  let cap = Array.length t.ts in
  let i = t.next in
  t.ts.(i) <- ts;
  t.dur.(i) <- dur;
  t.name.(i) <- name;
  t.pid.(i) <- pid;
  t.tid.(i) <- tid;
  t.a.(i) <- a;
  t.b.(i) <- b;
  t.next <- (if t.capacity > 0 then (i + 1) mod cap else i + 1);
  if t.count < cap then t.count <- t.count + 1;
  t.recorded <- t.recorded + 1

let instant t ~ts ~name ~pid ~tid ?(a = absent) ?(b = absent) () =
  record t ~ts ~dur:(-1) ~name ~pid ~tid ~a ~b

let complete t ~ts ~dur ~name ~pid ~tid ?(a = absent) ?(b = absent) () =
  record t ~ts ~dur:(Int.max 0 dur) ~name ~pid ~tid ~a ~b

let length t = t.count

let recorded t = t.recorded

(* ------------------------------------------------------------------ *)
(* Exporters *)

(* bfc-lint: control-plane *)
let us_of_ns ns = Printf.sprintf "%.3f" (float_of_int ns /. 1000.0)

(* Distinct (pid, tid) tracks of the buffered records, sorted. *)
(* bfc-lint: control-plane *)
let tracks t =
  let seen = Hashtbl.create 64 in
  iter t (fun ~ts:_ ~dur:_ ~name:_ ~pid ~tid ~a:_ ~b:_ ->
      if not (Hashtbl.mem seen (pid, tid)) then Hashtbl.add seen (pid, tid) ());
  (* commutative collection, then a deterministic sort for stable output;
     bfc-lint: allow det-hashtbl-order *)
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

(* Buffered record indices oldest-first, stable-sorted by timestamp:
   complete spans are recorded when they close but stamped with their start
   ts, so raw record order is not time order. *)
let sorted_indices t =
  let cap = Array.length t.ts in
  let start = if t.capacity > 0 && t.recorded > t.count then t.next else 0 in
  let idx = Array.init t.count (fun k -> (start + k) mod cap) in
  Array.stable_sort (fun i j -> Int.compare t.ts.(i) t.ts.(j)) idx;
  idx

(* bfc-lint: control-plane *)
let to_chrome ?process_name ?track_name t oc =
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else output_char oc ',';
    output_string oc "\n"
  in
  let tracks = tracks t in
  let pids = List.sort_uniq compare (List.map fst tracks) in
  (match process_name with
  | None -> ()
  | Some f ->
    List.iter
      (fun pid ->
        match f ~pid with
        | None -> ()
        | Some nm ->
          sep ();
          output_string oc
            (Printf.sprintf
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
               pid nm))
      pids);
  (match track_name with
  | None -> ()
  | Some f ->
    List.iter
      (fun (pid, tid) ->
        match f ~pid ~tid with
        | None -> ()
        | Some nm ->
          sep ();
          output_string oc
            (Printf.sprintf
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
               pid tid nm))
      tracks);
  Array.iter
    (fun i ->
      let ts = t.ts.(i) and dur = t.dur.(i) and name = t.name.(i) in
      let pid = t.pid.(i) and tid = t.tid.(i) in
      let opt v = if v = absent then None else Some v in
      let a = opt t.a.(i) and b = opt t.b.(i) in
      sep ();
      let args = args_json t ~name ~a ~b in
      if dur < 0 then
        output_string oc
          (Printf.sprintf
             "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":%d,\"tid\":%d%s}"
             t.names.(name) (us_of_ns ts) pid tid args)
      else
        output_string oc
          (Printf.sprintf
             "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d%s}"
             t.names.(name) (us_of_ns ts) (us_of_ns dur) pid tid args))
    (sorted_indices t);
  output_string oc "\n]}\n"

(* bfc-lint: control-plane *)
let to_jsonl t oc =
  iter t (fun ~ts ~dur ~name ~pid ~tid ~a ~b ->
      output_string oc
        (Printf.sprintf "{\"ts\":%d,\"dur\":%d,\"name\":\"%s\",\"pid\":%d,\"tid\":%d%s}\n" ts
           dur t.names.(name) pid tid (args_json t ~name ~a ~b)))
