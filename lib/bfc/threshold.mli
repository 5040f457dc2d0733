(** The pause threshold Th (§3.3.2): one-hop BDP at the queue's drain rate.

    Th = HRTT x (µ / N_active), with µ the egress port capacity and
    N_active the number of active (non-empty, unpaused) queues at that
    egress. In hardware this is a pre-configured match-action table keyed
    by ⟨N_active, µ⟩; here we expose both the direct computation and a
    quantized table to mirror the hardware. *)

(** [bytes ~hrtt ~gbps ~n_active ~factor] — threshold in bytes.
    [factor] scales Th (1.0 = the paper's setting). *)
(* the §3.3.2 formula the tests check the quantized table against; bfc-lint: allow DC001 *)
val bytes : hrtt:Bfc_engine.Time.t -> gbps:float -> n_active:int -> factor:float -> int

(** A precomputed table over N_active in [1, max_active] (clamping above),
    as the hardware match-action table would hold. *)
type table

(* the §3.3.2 table; tests check it against the formula; bfc-lint: allow DC001 *)
val table : hrtt:Bfc_engine.Time.t -> gbps:float -> max_active:int -> factor:float -> table

(* the §3.3.2 table; tests check it against the formula; bfc-lint: allow DC001 *)
val lookup : table -> n_active:int -> int

(** Where a dataplane reads Th from: a fixed byte override (Fig. 7 sweeps)
    or the per-egress precomputed tables. One accessor shared by
    [Dataplane] and [Credit_dataplane], so the hot-path lookup logic
    exists exactly once. *)
type source = Fixed of int | Per_egress of table array

(** Integer-only; safe on the per-packet path. *)
val get : source -> egress:int -> n_active:int -> int

(** Control-plane population of a switch's threshold source from its port
    speeds and hop RTTs. *)
val source_for_switch :
  Bfc_switch.Switch.t -> fixed_th:int option -> factor:float -> source

(** Sticky queue-reassignment window: [mult] x the switch's max one-hop
    RTT (paper: 2 HRTT). *)
val sticky_window : Bfc_switch.Switch.t -> mult:float -> Bfc_engine.Time.t
