(** Fixed-size bitmap.

    BFC keeps a bitmap of empty queues per egress port to find a free queue
    in constant time; this module is that bitmap. *)

type t

(** [create n] makes a bitset over [0, n), all bits clear. *)
val create : int -> t

val set : t -> int -> unit

val clear : t -> int -> unit

val mem : t -> int -> bool

(** Number of set bits. *)
val cardinal : t -> int

(** [first_set t ~from] is the index of the first set bit at or after
    [from], wrapping around; [-1] if the set is empty. The rotating
    starting point mirrors Tofino2's per-pipeline rotation that avoids all
    pipelines picking the same empty queue. *)
val first_set : t -> from:int -> int

val fill : t -> unit
