(** Flow-size distributions.

    Empirical CDFs are piecewise log-linear in flow size. The three industry
    workloads of Fig. 2 are encoded from their published anchor points
    (see DESIGN.md for the substitution note):

    - [google]: aggregated Google all-application RPCs — mostly tiny flows,
      with roughly half of all *bytes* from flows under 100 KB;
    - [fb_hadoop]: Facebook Hadoop — larger flows, byte mass centred around
      a few hundred KB to a few MB;
    - [websearch]: the DCTCP web-search workload — byte mass dominated by
      multi-MB flows. *)

type t

(** [of_points ~name ~min_size pts] with [pts] a list of (size, cdf) pairs,
    strictly increasing in both coordinates, ending at cdf = 1.0. Sizes
    between points are log-interpolated; the first segment starts at
    [min_size]. *)
(* tests feed it malformed tables to check its validation; bfc-lint: allow DC001 *)
val of_points : name:string -> min_size:int -> (float * float) list -> t

val name : t -> string

(** Sample a flow size (bytes, >= 1). *)
val sample : t -> Bfc_util.Rng.t -> int

(** Expected flow size in bytes. *)
val mean : t -> float

(** Fraction of flows with size <= s. *)
(* observation: tests check the distribution is monotone; bfc-lint: allow DC001 *)
val cdf : t -> float -> float

(** Fraction of *bytes* belonging to flows of size <= s (Fig. 2's y-axis). *)
val byte_cdf : t -> float -> float

(** Degenerate distribution (all flows the same size). *)
val fixed : int -> t

val google : t

val fb_hadoop : t

val websearch : t

(** "google" | "fb_hadoop" | "websearch". *)
val by_name : string -> t
