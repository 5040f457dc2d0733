type bfc_opts = {
  queues : int;
  assignment : Bfc_core.Dqa.policy;
  window_cap : float option;
  delay_cc : bool;
  incast_label : bool;
  sampling : float;
  table_mult : int;
  th_factor : float;
  fixed_th : int option;
  nic_respect_pause : bool;
  srf : bool;
  classes : int;
  bitmap_period : Bfc_engine.Time.t option;
  sticky_hrtt_mult : float;
}

let bfc_default =
  {
    queues = 32;
    assignment = Bfc_core.Dqa.Dynamic;
    window_cap = None;
    delay_cc = false;
    incast_label = false;
    sampling = 1.0;
    table_mult = 100;
    th_factor = 1.0;
    fixed_th = None;
    nic_respect_pause = true;
    srf = false;
    classes = 1;
    bitmap_period = None;
    sticky_hrtt_mult = 2.0;
  }

type t =
  | Bfc of bfc_opts
  | Bfc_credit
  | Ideal_fq
  | Ideal_srf
  | Dctcp of { slow_start : bool }
  | Dcqcn
  | Hpcc of { eta : float }
  | Hpcc_pfc of { sfq : bool; dqa : bool }
  | Swift
  | Timely
  | Pfc_only
  | Expresspass of { target_loss : float; w_init : float }
  | Homa of { spray : bool }

let bfc = Bfc bfc_default

let bfc_q n = Bfc { bfc_default with queues = n }

let bfc_srf = Bfc { bfc_default with srf = true }

let bfc_credit = Bfc_credit

let dctcp = Dctcp { slow_start = false }

let dcqcn = Dcqcn

let hpcc = Hpcc { eta = 0.95 }

let hpcc_pfc = Hpcc_pfc { sfq = false; dqa = false }

let expresspass = Expresspass { target_loss = 0.1; w_init = 0.0625 }

let swift = Swift

let timely = Timely

let pfc_only = Pfc_only

let homa = Homa { spray = true }

let homa_ecmp = Homa { spray = false }

let name = function
  | Bfc o ->
    let base = if o.srf then "BFC-SRF" else "BFC" in
    let tags =
      List.filter_map
        (fun x -> x)
        [
          (if o.queues <> 32 then Some (string_of_int o.queues) else None);
          (match o.assignment with
          | Bfc_core.Dqa.Dynamic -> None
          | Bfc_core.Dqa.Stochastic -> Some "stochastic"
          | Bfc_core.Dqa.Single -> Some "single");
          (if o.delay_cc then Some "CC" else None);
          (if o.incast_label then Some "incastlabel" else None);
          (if o.sampling < 1.0 then Some "sampling" else None);
          (if not o.nic_respect_pause then Some "noNIC" else None);
          (if o.window_cap <> None then Some "cap" else None);
        ]
    in
    if tags = [] then base else base ^ " (" ^ String.concat "," tags ^ ")"
  | Bfc_credit -> "BFC-credit"
  | Ideal_fq -> "Ideal-FQ"
  | Ideal_srf -> "Ideal-SRF"
  | Dctcp { slow_start } -> if slow_start then "DCTCP+SS" else "DCTCP"
  | Dcqcn -> "DCQCN"
  | Hpcc _ -> "HPCC"
  | Hpcc_pfc { sfq; dqa } ->
    if sfq then "HPCC-PFC+SFQ" else if dqa then "HPCC-PFC+DQA" else "HPCC-PFC"
  | Swift -> "Swift"
  | Timely -> "Timely"
  | Pfc_only -> "PFC-only"
  | Expresspass _ -> "ExpressPass"
  | Homa { spray } -> if spray then "Homa" else "Homa-ECMP"
