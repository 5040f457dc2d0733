(** Flow inter-arrival processes. The paper uses open-loop arrivals with
    bursty log-normal gaps (sigma = 2) by default, Poisson for the queueing-
    theory cross-checks. *)

type t =
  | Poisson
  | Lognormal of float (** sigma; the paper uses 2.0 *)

(** [gap t rng ~mean] — next inter-arrival gap, in the unit of [mean]. *)
val gap : t -> Bfc_util.Rng.t -> mean:float -> float

val lognormal_default : t
