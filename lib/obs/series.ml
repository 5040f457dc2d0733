type t = {
  names : string array;
  fns : (unit -> float) array;
  mutable times : int array;
  mutable data : float array array;
  mutable n : int;
}

let csv_float v =
  if Float.is_nan v then ""
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let create reg =
  let cols = Registry.gauges reg in
  {
    names = Array.of_list (List.map fst cols);
    fns = Array.of_list (List.map snd cols);
    times = [||];
    data = [||];
    n = 0;
  }

let sample t ~now =
  let row = Array.map (fun f -> f ()) t.fns in
  if t.n = Array.length t.times then begin
    let ncap = if t.n = 0 then 64 else t.n * 2 in
    let nt = Array.make ncap 0 and nd = Array.make ncap [||] in
    Array.blit t.times 0 nt 0 t.n;
    Array.blit t.data 0 nd 0 t.n;
    t.times <- nt;
    t.data <- nd
  end;
  t.times.(t.n) <- now;
  t.data.(t.n) <- row;
  t.n <- t.n + 1

let n_samples t = t.n

let to_csv t oc =
  output_string oc (String.concat "," ("t_ns" :: Array.to_list t.names));
  output_char oc '\n';
  for i = 0 to t.n - 1 do
    output_string oc (string_of_int t.times.(i));
    Array.iter
      (fun v ->
        output_char oc ',';
        output_string oc (csv_float v))
      t.data.(i);
    output_char oc '\n'
  done
