(** Quantile sketch with a relative-error bound (DDSketch-style).

    Observations land in logarithmically spaced buckets derived from the
    IEEE-754 bit pattern — K sub-buckets per octave — so any quantile
    estimate is within relative error [alpha = 1/(2K)] of the exact
    percentile, at O(buckets touched) memory regardless
    of how many observations were added. Memory for a dataset spanning [d]
    octaves is at most [K * d] counters.

    State is integer bucket counts plus exact min/max, so the encoding
    ({!encode}) is canonical.

    Only positive finite values are bucketed. Zero, negative, NaN and
    infinite observations are counted separately and treated as zeros at
    the low end of the distribution (FCTs and queue delays are positive, so
    this path is empty in practice). *)

type t

(** [create ?alpha ()] builds an empty sketch whose quantile estimates are
    within relative error [alpha] (default [0.01]) of the exact value. The
    bucket resolution is rounded up to the next power of two, so {!alpha}
    reports an actual guarantee at least as tight as requested. Raises
    [Invalid_argument] unless [0 < alpha < 0.5]. *)
val create : ?alpha:float -> unit -> t

(** Actual relative-error guarantee (<= the [alpha] passed to {!create}). *)
(* observation: tests check the error bound; bfc-lint: allow DC001 *)
val alpha : t -> float

(** Record one observation. Hot path: two float comparisons and integer
    arithmetic; allocates only when the observed value range grows. *)
val add : t -> float -> unit

(** Total observations, including non-positive ones. *)
val count : t -> int

val is_empty : t -> bool

(** Exact smallest / largest bucketed (positive finite) observation; [nan]
    if none. *)
(* observation: tests read the exact extremes; bfc-lint: allow DC001 *)
val min : t -> float

(* observation: tests read the exact extremes; bfc-lint: allow DC001 *)
val max : t -> float

(** [quantile t q] with [q] in [0,1]: estimate of the exact percentile
    under the same convention as [Stats.Sample.percentile] — rank
    [q * (n - 1)], linear interpolation between the two adjacent order
    statistics — within relative error {!alpha} (each order statistic is
    estimated within {!alpha}, and the convex combination preserves the
    bound; the extremes clamp to the exact {!min} / {!max}).
    Raises [Invalid_argument] if empty or [q] out of range. *)
(* observation: tests check quantiles within alpha; bfc-lint: allow DC001 *)
val quantile : t -> float -> float

(** [percentile t p] = [quantile t (p /. 100.)]. *)
val percentile : t -> float -> float

(** Mean estimate from bucket midpoints (within {!alpha} relative error of
    the exact mean of the bucketed values; non-positive observations
    contribute zero). Accumulated in canonical ascending-bucket order, so
    the float result is independent of add interleaving. *)
val mean : t -> float

(** Number of nonzero buckets currently held. *)
val bucket_count : t -> int

(** Canonical binary encoding: independent of growth history, so
    equal-content sketches encode byte-identically ([encode a = encode b]
    is a valid deep-equality check). *)
val encode : t -> string

(** Inverse of {!encode}. Raises [Invalid_argument] on malformed input. *)
(* tests check that encode, which Metrics uses, loses nothing; bfc-lint: allow DC001 *)
val decode : string -> t
