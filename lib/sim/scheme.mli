(** The congestion-control / flow-control schemes under evaluation
    (§6.2.1 Comparisons), each mapping to a switch configuration, an
    optional switch dataplane program, and a host configuration. *)

type bfc_opts = {
  queues : int; (** physical queues per port (32 or 128) *)
  assignment : Bfc_core.Dqa.policy;
  window_cap : float option; (** inflight cap in BDP units; None = pure BFC *)
  delay_cc : bool; (** BFC+CC (App. A.1) *)
  incast_label : bool; (** App. A.7 *)
  sampling : float; (** App. A.8; 1.0 = every packet bookkept *)
  table_mult : int; (** flow table slots per port / queues *)
  th_factor : float;
  fixed_th : int option;
  nic_respect_pause : bool; (** false = BFC−NIC (App. A.8) *)
  srf : bool; (** BFC-SRF (App. A.2) *)
  classes : int; (** traffic classes (App. A.3) *)
  bitmap_period : Bfc_engine.Time.t option;
      (** periodic idempotent pause-bitmap refresh (§3.3.2), for resilience
          to lost pause/resume packets *)
  sticky_hrtt_mult : float; (** sticky reassignment threshold (paper: 2 HRTT) *)
}

val bfc_default : bfc_opts

type t =
  | Bfc of bfc_opts
  | Bfc_credit
      (** the lossless hop-by-hop credit variant of §5 (future work): 32
          queues per port, {!Bfc_core.Credit_dataplane.credit_bytes} of
          credit per queue *)
  | Ideal_fq  (** unbounded queues & buffers, FQ, 1-BDP window cap *)
  | Ideal_srf  (** same with SRF scheduling *)
  | Dctcp of { slow_start : bool }
  | Dcqcn
  | Hpcc of { eta : float }
  | Hpcc_pfc of { sfq : bool; dqa : bool }
      (** HPCC with perfect retransmission instead of PFC; optional
          stochastic / dynamic queue assignment (Fig. 14) *)
  | Swift
  | Timely
  | Pfc_only
      (** the §2.2 strawman: hop-by-hop PFC with FIFO queues and no
          end-to-end control beyond a 1-BDP inflight cap *)
  | Expresspass of { target_loss : float; w_init : float }
  | Homa of { spray : bool }

val name : t -> string

val bfc : t (** BFC with the paper's defaults (32 queues) *)

val bfc_q : int -> t

val bfc_srf : t

val bfc_credit : t

val dctcp : t

val dcqcn : t

val hpcc : t

val hpcc_pfc : t

val expresspass : t

val swift : t

val timely : t

val pfc_only : t

val homa : t

val homa_ecmp : t
