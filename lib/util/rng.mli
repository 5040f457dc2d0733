(** Deterministic pseudo-random number generation.

    A small, fast generator (splitmix64) used everywhere in the simulator
    so that experiments are reproducible from a single seed. A draw
    allocates nothing. *)

type t

(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)
val create : int -> t

(** [copy t] duplicates the current state (same future stream). *)
(* observation: tests read a stream without consuming it; bfc-lint: allow DC001 *)
val copy : t -> t

(** Next raw 64-bit value (as an OCaml [int], so 63 bits retained). *)
(* observation: tests compare raw streams; bfc-lint: allow DC001 *)
val bits : t -> int

(** [int t n] is uniform in [0, n). Raises [Invalid_argument] if [n <= 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [bernoulli t p] is a biased coin: [true] with probability [p]. The
    endpoints are exact ([p = 0.] never, [p = 1.] always) and consume no
    randomness. Raises [Invalid_argument] unless [0. <= p <= 1.] (NaN
    included). *)
val bernoulli : t -> float -> bool

(** [exponential t ~mean] samples Exp with the given mean. *)
val exponential : t -> mean:float -> float

(** [lognormal_mean t ~mean ~sigma] samples a lognormal with expectation
    [mean] and shape [sigma] (mu derived as ln mean - sigma^2/2). *)
val lognormal_mean : t -> mean:float -> sigma:float -> float

(** Standard normal via Box–Muller. *)
(* observation: tests check the draw lognormal_mean builds on; bfc-lint: allow DC001 *)
val normal : t -> float

(** [shuffle t a] shuffles [a] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit
