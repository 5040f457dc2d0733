(* Motivation-section experiments: Fig. 1-4, Table 1, the M/G/1-PS law of
   §2.3 and the App. C threshold model (Fig. 30). *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Topology = Bfc_net.Topology
module Flow = Bfc_net.Flow
module Switch = Bfc_switch.Switch
module Dist = Bfc_workload.Dist
module Traffic = Bfc_workload.Traffic
module Arrivals = Bfc_workload.Arrivals
module Sample = Bfc_util.Stats.Sample
open Exp_common

(* ------------------------------------------------------------------ *)
(* Fig. 1: hardware trends (published Broadcom data, re-tabulated).     *)

let fig1 _profile =
  let data =
    (* chip, year, capacity (Tbps), buffer (MB) *)
    [
      ("Trident+", 2010, 0.64, 9.0);
      ("Trident2", 2013, 1.28, 12.0);
      ("Tomahawk", 2015, 3.2, 16.0);
      ("Tomahawk2", 2017, 6.4, 42.0);
      ("Tomahawk3", 2019, 12.8, 64.0);
    ]
  in
  let rows =
    List.map
      (fun (chip, year, cap, buf) ->
        let ratio_us = buf *. 8.0 /. cap in
        [ chip; string_of_int year; cell cap; cell buf; cell ratio_us ])
      data
  in
  [
    {
      title = "Fig 1: switch capacity vs buffer (Broadcom top-of-line)";
      header = [ "chip"; "year"; "capacity(Tbps)"; "buffer(MB)"; "buffer/capacity(us)" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 2: byte-weighted CDF of flow sizes, with BDP markers.           *)

let fig2 _profile =
  let sizes = [ 1e3; 3e3; 1e4; 3e4; 1e5; 3e5; 1e6; 3e6; 1e7 ] in
  let dists = [ Dist.google; Dist.fb_hadoop; Dist.websearch ] in
  let rows =
    List.map
      (fun s ->
        string_of_int (int_of_float s)
        :: List.map (fun d -> cell (Dist.byte_cdf d s)) dists)
      sizes
  in
  let bdp gbps = gbps /. 8.0 *. 12_000.0 in
  [
    {
      title = "Fig 2: cumulative bytes by flow size (fraction of bytes in flows <= size)";
      header = [ "size(B)"; "google"; "fb_hadoop"; "websearch" ];
      rows;
    };
    {
      title = "Fig 2 (BDP markers, 12us RTT)";
      header = [ "link"; "BDP(B)" ];
      rows =
        List.map
          (fun g -> [ Printf.sprintf "%gG" g; string_of_int (int_of_float (bdp g)) ])
          [ 10.0; 40.0; 100.0 ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 3: fair-share variability on a processor-sharing link.          *)

(* Fluid PS simulation: flows arrive open-loop and share the link equally;
   we track N(t) and compute the mean relative change of f = C/N over an
   interval I. *)
let ps_trace ~dist ~gbps ~load ~duration ~seed =
  let rng = Bfc_util.Rng.create seed in
  let rate = gbps /. 8.0 (* bytes per ns *) in
  let mean_gap = Dist.mean dist /. (load *. rate) in
  (* active flows: remaining work; event-driven *)
  let active : (int, float ref) Hashtbl.t = Hashtbl.create 64 in
  let changes = ref [] in
  (* (time, n) *)
  let now = ref 0.0 in
  let next_arrival = ref (Arrivals.gap Arrivals.lognormal_default rng ~mean:mean_gap) in
  let next_id = ref 0 in
  let record () = changes := (!now, Hashtbl.length active) :: !changes in
  record ();
  while !now < duration do
    let n = Hashtbl.length active in
    (* earliest completion under PS *)
    let min_rem =
      (* commutative min-reduction, order-independent; bfc-lint: allow det-hashtbl-order *)
      Hashtbl.fold (fun _ r acc -> Float.min acc !r) active infinity
    in
    let per_flow_rate = if n = 0 then 0.0 else rate /. float_of_int n in
    let t_completion =
      if n = 0 then infinity else !now +. (min_rem /. per_flow_rate)
    in
    if !next_arrival <= t_completion then begin
      let dt = !next_arrival -. !now in
      if n > 0 then
        (* independent per-entry updates, order-independent; bfc-lint: allow det-hashtbl-order *)
        Hashtbl.iter (fun _ r -> r := !r -. (dt *. per_flow_rate)) active;
      now := !next_arrival;
      incr next_id;
      Hashtbl.add active !next_id (ref (float_of_int (Dist.sample dist rng)));
      next_arrival := !now +. Arrivals.gap Arrivals.lognormal_default rng ~mean:mean_gap;
      record ()
    end
    else begin
      let dt = t_completion -. !now in
      (* independent per-entry updates, order-independent; bfc-lint: allow det-hashtbl-order *)
      Hashtbl.iter (fun _ r -> r := !r -. (dt *. per_flow_rate)) active;
      now := t_completion;
      (* remove all with remaining <= epsilon; the collected keys only feed
         Hashtbl.remove, so order is irrelevant; bfc-lint: allow det-hashtbl-order *)
      let dead = Hashtbl.fold (fun k r acc -> if !r <= 1.0 then k :: acc else acc) active [] in
      List.iter (Hashtbl.remove active) dead;
      record ()
    end
  done;
  Array.of_list (List.rev !changes)

let n_at trace t =
  (* binary search the step function *)
  let n = Array.length trace in
  if n = 0 then 0
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if fst trace.(mid) <= t then lo := mid else hi := mid
    done;
    snd trace.(if fst trace.(!hi) <= t then !hi else !lo)
  end

let fair_share_change trace ~duration ~interval =
  let s = Sample.create () in
  let step = interval /. 4.0 in
  let t = ref (duration /. 10.0) in
  while !t +. interval < duration do
    let n1 = n_at trace !t and n2 = n_at trace (!t +. interval) in
    if n1 > 0 && n2 > 0 then begin
      let f1 = 1.0 /. float_of_int n1 and f2 = 1.0 /. float_of_int n2 in
      Sample.add s (Float.abs (f2 -. f1) /. f1 *. 100.0)
    end;
    t := !t +. step
  done;
  if Sample.is_empty s then nan else Sample.mean s

let fig3 profile =
  let duration =
    match profile with Smoke -> 2e6 | Quick -> 2e7 | Paper -> 2e8
    (* ns *)
  in
  let intervals = [ 8e3; 32e3; 128e3; 512e3 ] in
  let combos =
    List.concat_map
      (fun dist -> List.map (fun gbps -> (dist, gbps)) [ 10.0; 40.0; 100.0 ])
      [ Dist.google; Dist.fb_hadoop; Dist.websearch ]
  in
  let rows =
    Pool.run
      (List.map
         (fun (dist, gbps) () ->
           let trace = ps_trace ~dist ~gbps ~load:0.6 ~duration ~seed:11 in
           let cells =
             List.map
               (fun i -> cell (fair_share_change trace ~duration ~interval:i))
               intervals
           in
           Dist.name dist :: Printf.sprintf "%gG" gbps :: cells)
         combos)
  in
  [
    {
      title = "Fig 3: mean % change in fair-share rate vs measurement interval (60% load)";
      header = [ "workload"; "link"; "8us"; "32us"; "128us"; "512us" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 4: number of active flows at a bottleneck port.                 *)

(* The star's bottleneck: its switch and the switch's egress towards the
   receiver. *)
let bottleneck env (st : Topology.star) =
  ( Runner.switch env st.Topology.st_switch,
    Topology.egress_towards st.Topology.s ~node:st.Topology.st_switch
      ~peer:st.Topology.st_receiver )

let active_flow_run ~profile ~scheme ~gbps ~load ~seed =
  let senders = match profile with Smoke -> 8 | _ -> 16 in
  let params = { Runner.default_params with track_active_flows = true; seed } in
  let st, env = prepare (Star { senders; gbps }) scheme params in
  let duration =
    let base = match profile with Smoke -> Time.us 500.0 | Quick -> Time.ms 5.0 | Paper -> Time.ms 40.0 in
    (* slower links need longer wall-clock to see the same flow count *)
    int_of_float (float_of_int base *. (100.0 /. gbps))
  in
  let flows =
    Traffic.to_one ~hosts:st.Topology.st_senders ~dst:st.Topology.st_receiver ~gbps
      ~dist:Dist.google ~arrivals:Arrivals.lognormal_default ~load ~duration ~seed ~ids:(ref 0)
  in
  let sw, egress = bottleneck env st in
  let sample = Sample.create () in
  ignore
    (Sim.every (Runner.sim env) ~period:(Time.us 10.0) (fun () ->
         Sample.add sample (float_of_int (Switch.active_flows sw ~egress))));
  execute env ~until:duration (Flows flows);
  sample

let fig4 profile =
  let pct sample p = if Sample.is_empty sample then nan else Sample.percentile sample p in
  (* (a) FQ across loads and link speeds *)
  let loads = [ 0.5; 0.7; 0.85; 0.95 ] in
  let combos_a =
    List.concat_map
      (fun gbps -> List.map (fun load -> (gbps, load)) loads)
      (match profile with Smoke -> [ 100.0 ] | _ -> [ 10.0; 40.0; 100.0 ])
  in
  let rows_a =
    Pool.run
      (List.map
         (fun (gbps, load) () ->
           let s = active_flow_run ~profile ~scheme:Scheme.Ideal_fq ~gbps ~load ~seed:3 in
           [
             Printf.sprintf "%gG" gbps;
             cell load;
             cell (Sample.mean s);
             cell (pct s 50.0);
             cell (pct s 90.0);
             cell (pct s 99.0);
           ])
         combos_a)
  in
  (* (b) scheduling policy at 100G, 60/85% *)
  let fifo_scheme =
    Scheme.Bfc
      {
        Scheme.bfc_default with
        Scheme.queues = 2;
        fixed_th = Some max_int;
        window_cap = Some 1.0;
      }
  in
  let combos_b =
    List.concat_map
      (fun (name, scheme) -> List.map (fun load -> (name, scheme, load)) [ 0.6; 0.85 ])
      [ ("FQ", Scheme.Ideal_fq); ("SRF", Scheme.Ideal_srf); ("FIFO", fifo_scheme) ]
  in
  let rows_b =
    Pool.run
      (List.map
         (fun (name, scheme, load) () ->
           let s = active_flow_run ~profile ~scheme ~gbps:100.0 ~load ~seed:3 in
           [
             name;
             cell load;
             cell (Sample.mean s);
             cell (pct s 50.0);
             cell (pct s 90.0);
             cell (pct s 99.0);
           ])
         combos_b)
  in
  [
    {
      title = "Fig 4a: active flows at the bottleneck (fair queuing; Tofino2 has 32 queues/100G port)";
      header = [ "link"; "load"; "mean"; "p50"; "p90"; "p99" ];
      rows = rows_a;
    };
    {
      title = "Fig 4b: active flows vs scheduling policy (100G)";
      header = [ "policy"; "load"; "mean"; "p50"; "p90"; "p99" ];
      rows = rows_b;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Table 1: long flow on a shared 100G link.                            *)

let table1 profile =
  let schemes = [ Scheme.bfc; Scheme.hpcc; Scheme.dcqcn ] in
  let rows =
    Pool.run
      (List.map
         (fun scheme () ->
        let senders = 16 in
        let st, env = prepare (Star { senders; gbps = 100.0 }) scheme Runner.default_params in
        let duration =
          match profile with Smoke -> Time.us 400.0 | Quick -> Time.ms 4.0 | Paper -> Time.ms 20.0
        in
        (* one long-lived flow plus FB cross traffic at 60% *)
        let ids = ref 0 in
        let long =
          Traffic.long_lived
            ~pairs:[| (st.Topology.st_senders.(0), st.Topology.st_receiver) |]
            ~size:(1 lsl 40) ~ids ()
        in
        let cross =
          Traffic.to_one ~hosts:(Array.sub st.Topology.st_senders 1 (senders - 1))
            ~dst:st.Topology.st_receiver ~gbps:100.0 ~dist:Dist.fb_hadoop
            ~arrivals:Arrivals.lognormal_default ~load:0.6 ~duration ~seed:5 ~ids
        in
        let _, egress = bottleneck env st in
        let lf = List.hd long in
        (* the paper's metric: per-packet queuing delay of the *long flow*
           at the bottleneck *)
        let delays =
          Metrics.watch_queue_delay env ~filter:(fun ~sw ~egress:e pkt ->
              sw = st.Topology.st_switch && e = egress && Bfc_net.Packet.fid pkt = lf.Flow.id)
        in
        execute env ~until:duration (Flows (Traffic.merge [ long; cross ]));
        let tput =
          float_of_int lf.Flow.delivered /. (100.0 /. 8.0 *. float_of_int duration) *. 100.0
        in
        let p99 = if Sample.is_empty delays then nan else Sample.percentile delays 99.0 in
        [ Scheme.name scheme; cell tput; cell p99 ])
         schemes)
  in
  [
    {
      title = "Table 1: long flow sharing a 100G link with FB cross-traffic (60% load)";
      header = [ "scheme"; "long-flow tput (%)"; "p99 queuing delay (us)" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* M/G/1-PS theory vs simulation (Sec 2.3).                             *)

let mg1 profile =
  let rows =
    Pool.run
      (List.map
         (fun rho () ->
        let params = { Runner.default_params with track_active_flows = true } in
        let st, env = prepare (Star { senders = 16; gbps = 100.0 }) Scheme.Ideal_fq params in
        let duration =
          match profile with Smoke -> Time.us 500.0 | Quick -> Time.ms 6.0 | Paper -> Time.ms 40.0
        in
        let flows =
          Traffic.to_one ~hosts:st.Topology.st_senders ~dst:st.Topology.st_receiver ~gbps:100.0
            ~dist:Dist.google ~arrivals:Arrivals.Poisson ~load:rho ~duration ~seed:17 ~ids:(ref 0)
        in
        let sw, egress = bottleneck env st in
        let sample = Sample.create () in
        ignore
          (Sim.every (Runner.sim env) ~period:(Time.us 5.0) (fun () ->
               Sample.add sample (float_of_int (Switch.active_flows sw ~egress))));
        execute env ~until:duration (Flows flows);
        [
          cell rho;
          cell (Bfc_core.Active_flows.mean ~rho);
          cell (Sample.mean sample);
          string_of_int (Bfc_core.Active_flows.quantile ~rho ~p:0.99);
          cell (Sample.percentile sample 99.0);
        ])
         [ 0.5; 0.7; 0.8; 0.9 ])
  in
  [
    {
      title = "Sec 2.3: M/G/1-PS active flows, theory (rho/(1-rho)) vs packet simulation";
      header = [ "rho"; "mean(theory)"; "mean(sim)"; "p99(theory)"; "p99(sim)" ];
      rows;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 30: worst-case idle fraction vs pause threshold (analytic).     *)

let fig30 _profile =
  let rows =
    List.map
      (fun th ->
        [
          cell th;
          cell (Bfc_core.Model.worst_x ~th_ratio:th);
          cell (Bfc_core.Model.max_ef ~th_ratio:th);
          cell (Bfc_core.Model.peak_queue ~x:(Bfc_core.Model.worst_x ~th_ratio:th) ~th_ratio:th);
        ])
      [ 0.25; 0.5; 1.0; 2.0; 4.0; 8.0 ]
  in
  [
    {
      title = "Fig 30 (App C): max_x E_f(x,Th) vs Th (in 1-hop-BDP units); 0.2 at Th=1";
      header = [ "Th/BDP"; "worst x"; "max idle fraction"; "peak queue (BDP)" ];
      rows;
    };
  ]
