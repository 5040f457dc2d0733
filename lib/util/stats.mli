(** Collection and summarisation of samples (FCTs, queue depths, delays).

    [Sample] accumulates float observations and answers percentile / mean
    queries exactly. Quantile queries sort the backing array {e in place}
    (flagging it clean until the next [add]) rather than caching a sorted
    copy, so the exact path holds one copy of the data, not two.

    {b NaN ordering guarantee.} All ordering inside [Sample] uses
    [Float.compare], a total order in which every NaN compares equal to
    itself and {e below} every real number (and [-0.] below [0.]). So a
    stray NaN observation cannot poison the sort: NaNs collect at the front
    of {!sorted}, {!max} still reports the largest real number, and low percentiles degrade to [nan]
    in proportion to how many NaNs were added instead of scrambling the
    whole order (as [(<)]-based sorting would). *)

module Sample : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit

  val count : t -> int

  val is_empty : t -> bool

  (** [sum /. count]; maintained incrementally in insertion order, so the
      float result is unaffected by the in-place sorting of queries. *)
  val mean : t -> float

  (** Largest value in [Float.compare] order — ignores NaNs unless the
      sample is all-NaN; [nan] when empty. *)
  val max : t -> float

  (** Sample standard deviation (n-1). Accumulated in ascending (sorted)
      order — a canonical order, so the float result does not depend on how
      observations interleaved. *)
  val stddev : t -> float

  (** [percentile t p] with [p] in [0,100]; nearest-rank with linear
      interpolation over the [Float.compare]-sorted values. Raises
      [Invalid_argument] if empty or [p] out of range. *)
  val percentile : t -> float -> float

  (** All values, sorted ascending by [Float.compare] (a fresh copy; NaNs
      first — see the NaN ordering guarantee above). *)
  (* observation: tests read the sorted values; bfc-lint: allow DC001 *)
  val sorted : t -> float array
end
