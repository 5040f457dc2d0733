(** Active-flow theory (§2.3): for an M/G/1-PS queue at load rho < 1, the
    number of active flows is geometric with mean rho/(1-rho), independent
    of link speed and flow size distribution. *)

(** Expected number of active flows: rho / (1 - rho). *)
val mean : rho:float -> float

(** P(N = n) = (1 - rho) rho^n. *)
(* the §2.3 law the theory tests check mean and quantile against; bfc-lint: allow DC001 *)
val pmf : rho:float -> int -> float

(** P(N <= n). *)
(* the §2.3 law the theory tests check mean and quantile against; bfc-lint: allow DC001 *)
val cdf : rho:float -> int -> float

(** Smallest n with P(N <= n) >= p. *)
val quantile : rho:float -> p:float -> int
