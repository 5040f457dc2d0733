(* Slots live in flat growable arrays; a handle is an index into them. The
   name -> handle map is only consulted at registration time, so the update
   path touches nothing but the slot array. *)

type counter = int

type histogram = int

type t = {
  enabled : bool;
  (* counters *)
  mutable c_names : string array;
  mutable c_cells : int array;
  mutable c_n : int;
  (* gauges *)
  mutable g_names : string array;
  mutable g_fns : (unit -> float) array;
  mutable g_n : int;
  (* histograms: edges + counts per slot *)
  mutable h_names : string array;
  mutable h_edges : float array array;
  mutable h_counts : int array array;
  mutable h_n : int;
}

let create ?(enabled = true) () =
  {
    enabled;
    c_names = [||];
    c_cells = [||];
    c_n = 0;
    g_names = [||];
    g_fns = [||];
    g_n = 0;
    h_names = [||];
    h_edges = [||];
    h_counts = [||];
    h_n = 0;
  }

let enabled t = t.enabled

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

let incr t c = if t.enabled then t.c_cells.(c) <- t.c_cells.(c) + 1

let add t c d = if t.enabled then t.c_cells.(c) <- t.c_cells.(c) + d

let value t c = t.c_cells.(c)

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
let sample_gauges t =
  if not t.enabled then []
  else List.init t.g_n (fun i -> (t.g_names.(i), t.g_fns.(i) ()))

let check_edges edges =
  try Bfc_util.Buckets.check ~edges
  with Invalid_argument _ ->
    invalid_arg "Registry.histogram: edges must be non-empty and strictly ascending"

(* registration time; bfc-lint: control-plane *)
let histogram t name ~edges =
  match find t.h_names t.h_n name with
  | i when i >= 0 ->
    if t.h_edges.(i) <> edges then
      invalid_arg (Printf.sprintf "Registry.histogram: %s already registered with other edges" name);
    i
  | _ ->
    check_edges edges;
    let i = t.h_n in
    t.h_names <- grow_str t.h_names (i + 1);
    if i >= Array.length t.h_edges then begin
      t.h_edges <- Array.append t.h_edges (Array.make (max 8 (i + 1)) [||]);
      t.h_counts <- Array.append t.h_counts (Array.make (max 8 (i + 1)) [||])
    end;
    t.h_names.(i) <- name;
    t.h_edges.(i) <- Array.copy edges;
    t.h_counts.(i) <- Array.make (Array.length edges + 1) 0;
    t.h_n <- i + 1;
    i

(* First bucket i with v < edges.(i); overflow bucket otherwise. The
   shared binary search keeps wide histograms O(log buckets) on the hot
   path (Buckets.upper_index is the overflow-bucket flavour verbatim). *)
let bucket_of edges v = Bfc_util.Buckets.upper_index ~edges v

let observe t h v =
  if t.enabled then begin
    let counts = t.h_counts.(h) in
    let b = bucket_of t.h_edges.(h) v in
    counts.(b) <- counts.(b) + 1
  end

let histogram_counts t h = Array.copy t.h_counts.(h)

let histogram_edges t h = Array.copy t.h_edges.(h)

(* bfc-lint: control-plane *)
let histograms t =
  List.init t.h_n (fun i -> (t.h_names.(i), Array.copy t.h_edges.(i), Array.copy t.h_counts.(i)))

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
  Buffer.add_string buf "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i (name, edges, counts) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\n    \"%s\": { \"edges\": [" (json_escape name));
      Array.iteri
        (fun j e ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (json_float e))
        edges;
      Buffer.add_string buf "], \"counts\": [";
      Array.iteri
        (fun j c ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int c))
        counts;
      Buffer.add_string buf "] }")
    (histograms t);
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf
