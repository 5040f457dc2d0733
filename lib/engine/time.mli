(** Simulation time in integer nanoseconds.

    All simulator arithmetic is done in whole nanoseconds so that runs are
    bit-for-bit reproducible; helpers convert to and from human units. *)

type t = int

val ns : int -> t

val us : float -> t

val ms : float -> t

val to_us : t -> float

(** [tx_time ~bits_per_ns ~bytes] is the serialization time of [bytes] on a
    link of the given rate, rounded up to at least 1 ns. *)
val tx_time : gbps:float -> bytes:int -> t
