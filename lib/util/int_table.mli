(** Open-addressing, linear-probing hash table keyed by [int], built
    for per-packet hot paths: no bucket lists, no boxing, and lookups
    that allocate nothing.

    Any [int] key is accepted except [min_int] (reserved as the
    empty-slot marker). Deletion uses backward-shift compaction, so
    probe chains never accumulate tombstones. Load factor is kept at or
    below 1/2. *)

(** A multiset counter: a monomorphic [int -> int] table (counts in a
    flat [int array]: no write barrier). Absent keys read as 0;
    {!Counter.decr} removes a key when its count reaches 0 and ignores
    absent keys. *)
module Counter : sig
  type t

  val create : ?size:int -> unit -> t

  val length : t -> int
  (** Number of keys with a positive count. *)

  (* observation: tests read counts; bfc-lint: allow DC001 *)
  val get : t -> int -> int

  val incr : t -> int -> unit

  val decr : t -> int -> unit

  val reset : t -> unit
end
