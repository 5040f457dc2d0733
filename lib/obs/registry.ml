(* Slots live in flat growable arrays; a handle is an index into them. The
   name -> handle map is only consulted at registration time, so the update
   path touches nothing but the slot array. *)

type counter = int

type t = {
  (* counters *)
  mutable c_names : string array;
  mutable c_cells : int array;
  mutable c_n : int;
  (* gauges *)
  mutable g_names : string array;
  mutable g_fns : (unit -> float) array;
  mutable g_n : int;
}

let create () =
  {
    c_names = [||];
    c_cells = [||];
    c_n = 0;
    g_names = [||];
    g_fns = [||];
    g_n = 0;
  }

(* Registration-time linear lookup: registries hold tens of probes and
   registration happens once per run, so no hash table is needed (and
   enumeration order stays the registration order for free). *)
(* bfc-lint: control-plane *)
let find names n name =
  let rec scan i = if i >= n then -1 else if names.(i) = name then i else scan (i + 1) in
  scan 0

let grow_str a n = if n < Array.length a then a else Array.append a (Array.make (Int.max 8 n) "")

let counter t name =
  match find t.c_names t.c_n name with
  | i when i >= 0 -> i
  | _ ->
    let i = t.c_n in
    t.c_names <- grow_str t.c_names (i + 1);
    if i >= Array.length t.c_cells then
      t.c_cells <- Array.append t.c_cells (Array.make (Int.max 8 (i + 1)) 0);
    t.c_names.(i) <- name;
    t.c_cells.(i) <- 0;
    t.c_n <- i + 1;
    i

let incr t c = t.c_cells.(c) <- t.c_cells.(c) + 1

let add t c d = t.c_cells.(c) <- t.c_cells.(c) + d

(* enumeration for export, not per packet; bfc-lint: control-plane *)
let counters t = List.init t.c_n (fun i -> (t.c_names.(i), t.c_cells.(i)))

let gauge t name fn =
  match find t.g_names t.g_n name with
  | i when i >= 0 -> t.g_fns.(i) <- fn
  | _ ->
    let i = t.g_n in
    t.g_names <- grow_str t.g_names (i + 1);
    if i >= Array.length t.g_fns then
      t.g_fns <- Array.append t.g_fns (Array.make (Int.max 8 (i + 1)) (fun () -> 0.0));
    t.g_names.(i) <- name;
    t.g_fns.(i) <- fn;
    t.g_n <- i + 1

(* bfc-lint: control-plane *)
let gauges t = List.init t.g_n (fun i -> (t.g_names.(i), t.g_fns.(i)))

(* bfc-lint: control-plane *)
let sample_gauges t = List.init t.g_n (fun i -> (t.g_names.(i), t.g_fns.(i) ()))

(* ------------------------------------------------------------------ *)
(* JSON export. Probe names are plain identifiers ("engine.heap_hwm"), but
   escape defensively anyway. *)

(* bfc-lint: control-plane *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* bfc-lint: control-plane *)
let json_float f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

(* bfc-lint: control-plane *)
let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\n    \"%s\": %d" (json_escape name) v))
    (counters t);
  Buffer.add_string buf "\n  },\n  \"gauges\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\n    \"%s\": %s" (json_escape name) (json_float v)))
    (sample_gauges t);
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf
