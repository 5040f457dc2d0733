(** Open-addressing, linear-probing hash table keyed by [int], built
    for per-packet hot paths: no bucket lists, no boxing, and a
    zero-allocation lookup idiom.

    Any [int] key is accepted except [min_int] (reserved as the
    empty-slot marker). Deletion uses backward-shift compaction, so
    probe chains never accumulate tombstones. Load factor is kept at or
    below 1/2.

    The allocation-free lookup idiom:
    {[
      match Int_table.find_exn t key with
      | exception Not_found -> (* miss *)
      | v -> (* hit, no [Some] box *)
    ]} *)

type 'a t

val create : ?size:int -> unit -> 'a t
(** [create ?size ()] makes an empty table pre-sized for [size]
    entries (default 16). *)

val length : 'a t -> int

val mem : 'a t -> int -> bool

val find_exn : 'a t -> int -> 'a
(** Allocation-free lookup. @raise Not_found on a miss. *)

val find_opt : 'a t -> int -> 'a option
(** Convenience wrapper over {!find_exn}; allocates [Some] on a hit. *)

val set : 'a t -> int -> 'a -> unit
(** Insert or overwrite. *)

val remove : 'a t -> int -> unit
(** No-op when the key is absent. *)

val reset : 'a t -> unit
(** Drop all entries, keeping the allocated arrays. *)

(** Monomorphic [int -> int] table (values in a flat [int array]: no
    write barrier), a multiset counter and an id -> slot map. Absent keys
    read as 0; {!Counter.decr} removes a key when its count reaches 0
    and ignores absent keys. *)
module Counter : sig
  type t

  val create : ?size:int -> unit -> t

  val length : t -> int
  (** Number of keys with a positive count. *)

  val get : t -> int -> int

  val incr : t -> int -> unit

  val decr : t -> int -> unit

  val set : t -> int -> int -> unit

  val remove : t -> int -> unit
  (** No-op when the key is absent. *)

  val reset : t -> unit
end
