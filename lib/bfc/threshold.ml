let bytes ~hrtt ~gbps ~n_active ~factor =
  let n = max 1 n_active in
  (* gbps Gbit/s = gbps/8 bytes per ns *)
  let bdp = float_of_int hrtt *. gbps /. 8.0 in
  int_of_float (factor *. bdp /. float_of_int n)

type table = { values : int array; max_active : int }

let table ~hrtt ~gbps ~max_active ~factor =
  if max_active <= 0 then invalid_arg "Threshold.table";
  {
    values = Array.init (max_active + 1) (fun n -> bytes ~hrtt ~gbps ~n_active:(max 1 n) ~factor);
    max_active;
  }

let lookup t ~n_active =
  let n = if n_active < 1 then 1 else if n_active > t.max_active then t.max_active else n_active in
  t.values.(n)

(* ------------------------------------------------------------------ *)
(* Shared control-plane derivations: Dataplane and Credit_dataplane both
   populate their threshold/sticky state through these instead of keeping
   parallel copies. *)

module Switch = Bfc_switch.Switch

type source = Fixed of int | Per_egress of table array

let get src ~egress ~n_active =
  match src with Fixed b -> b | Per_egress tables -> lookup tables.(egress) ~n_active

(* Per-egress max one-hop RTT over the ingresses that can feed it (§3.3.2:
   the max of HRTT across all the ingresses). *)
let hrtt_per_egress sw =
  let n_ports = Switch.n_ports sw in
  (* Th uses the max 1-hop RTT across the ingress ports that can feed an
     egress, i.e. every port but the egress itself (§3.3.2: "we use the max
     of HRTT across all the ingresses"); this matters on asymmetric
     topologies like the cross-DC WAN link (App. A.9). *)
  Array.init n_ports (fun egress ->
      let m = ref 0 in
      for p = 0 to n_ports - 1 do
        if p <> egress || n_ports = 1 then
          m := max !m (Bfc_net.Port.hop_rtt (Switch.port sw p))
      done;
      !m)

let source_for_switch sw ~fixed_th ~factor =
  match fixed_th with
  | Some b -> Fixed b
  | None ->
    (* N_active is bounded by queues/port, so the whole Th function fits in
       a small per-egress table; populating it here is the control-plane
       side of the hardware split. *)
    let hrtt = hrtt_per_egress sw in
    let nq = (Switch.config sw).Switch.queues_per_port in
    Per_egress
      (Array.init (Switch.n_ports sw) (fun egress ->
           table ~hrtt:hrtt.(egress)
             ~gbps:(Bfc_net.Port.gbps (Switch.port sw egress))
             ~max_active:nq ~factor))

let sticky_window sw ~mult = int_of_float (mult *. float_of_int (Switch.max_hop_rtt sw))
