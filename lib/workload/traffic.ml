module Flow = Bfc_net.Flow
module Rng = Bfc_util.Rng

type matrix =
  | Uniform
  | Rack_local of { local_frac : float; rack_of : int -> int }
  | To_one of int

type spec = {
  hosts : int array;
  dist : Dist.t;
  arrivals : Arrivals.t;
  load : float;
  ref_capacity_gbps : float;
  core_fraction : float;
  matrix : matrix;
  duration : Bfc_engine.Time.t;
  seed : int;
  prio_classes : int;
}

(* Flow arrival rate (flows per ns) implied by the spec. *)
let arrival_rate spec =
  if spec.load <= 0.0 then invalid_arg "Traffic.arrival_rate: load";
  let bytes_per_ns = spec.ref_capacity_gbps /. 8.0 in
  let offered = spec.load *. bytes_per_ns /. spec.core_fraction in
  offered /. Dist.mean spec.dist

let pick_pair spec rng =
  let hosts = spec.hosts in
  let n = Array.length hosts in
  match spec.matrix with
  | Uniform ->
    let src = hosts.(Rng.int rng n) in
    let rec dst () =
      let d = hosts.(Rng.int rng n) in
      if d = src then dst () else d
    in
    (src, dst ())
  | Rack_local { local_frac; rack_of } ->
    let src = hosts.(Rng.int rng n) in
    let want_local = Rng.float rng < local_frac in
    let rec dst tries =
      let d = hosts.(Rng.int rng n) in
      if d = src then dst tries
      else if tries > 64 then d
      else if (rack_of d = rack_of src) = want_local then d
      else dst (tries + 1)
    in
    (src, dst 0)
  | To_one recv ->
    let rec src () =
      let s = hosts.(Rng.int rng n) in
      if s = recv then src () else s
    in
    (src (), recv)

let generate spec ~ids =
  let rng = Rng.create spec.seed in
  let mean_gap = 1.0 /. arrival_rate spec in
  let acc = ref [] in
  let t = ref (Arrivals.gap spec.arrivals rng ~mean:mean_gap) in
  while int_of_float !t < spec.duration do
    let src, dst = pick_pair spec rng in
    let size = Dist.sample spec.dist rng in
    let prio_class = if spec.prio_classes <= 1 then 0 else Rng.int rng spec.prio_classes in
    let id = !ids in
    incr ids;
    acc := Flow.make ~id ~src ~dst ~size ~arrival:(int_of_float !t) ~prio_class () :: !acc;
    t := !t +. Arrivals.gap spec.arrivals rng ~mean:mean_gap
  done;
  List.rev !acc

let to_one ~hosts ~dst ~gbps ~dist ~arrivals ~load ~duration ~seed ~ids =
  generate
    { hosts; dist; arrivals; load; ref_capacity_gbps = gbps; core_fraction = 1.0;
      matrix = To_one dst; duration; seed; prio_classes = 1 }
    ~ids

type incast_spec = {
  i_hosts : int array;
  degree : int;
  agg_size : int;
  period : Bfc_engine.Time.t;
  i_duration : Bfc_engine.Time.t;
  i_seed : int;
}

let period_for_load ~agg_size ~frac ~ref_capacity_gbps =
  let bytes_per_ns = frac *. ref_capacity_gbps /. 8.0 in
  max 1 (int_of_float (float_of_int agg_size /. bytes_per_ns))

let generate_incast spec ~ids =
  let rng = Rng.create spec.i_seed in
  let hosts = spec.i_hosts in
  let n = Array.length hosts in
  if n < 2 then invalid_arg "Traffic.generate_incast: need at least 2 hosts";
  let per_sender = max 1 (spec.agg_size / spec.degree) in
  let acc = ref [] in
  let t = ref spec.period in
  while !t < spec.i_duration do
    let dst = hosts.(Rng.int rng n) in
    (* [degree] senders excluding dst; when the degree exceeds the host
       count (the paper sweeps to 2000-to-1 on 128 servers), hosts source
       several of the incast flows each. *)
    let distinct = spec.degree < n in
    let chosen = Hashtbl.create (min spec.degree n) in
    let made = ref 0 in
    while !made < spec.degree do
      let s = hosts.(Rng.int rng n) in
      if s <> dst && ((not distinct) || not (Hashtbl.mem chosen s)) then begin
        if distinct then Hashtbl.add chosen s ();
        let id = !ids in
        incr ids;
        acc := Flow.make ~id ~src:s ~dst ~size:per_sender ~arrival:!t ~is_incast:true () :: !acc;
        incr made
      end
    done;
    t := !t + spec.period
  done;
  List.rev !acc

let long_lived ~pairs ?(size = 1 lsl 40) ?(start = 0) ~ids () =
  Array.to_list
    (Array.map
       (fun (src, dst) ->
         let id = !ids in
         incr ids;
         Flow.make ~id ~src ~dst ~size ~arrival:start ())
       pairs)

let merge lists =
  let all = List.concat lists in
  List.sort (fun a b -> compare a.Flow.arrival b.Flow.arrival) all
