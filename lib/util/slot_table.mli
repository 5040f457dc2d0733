(** Slot-indexed values with an int free list and an int-only id -> slot
    map, for per-flow state that comes and goes at a high rate. A
    released slot is handed out again with its value still in it, so a
    caller that reinitialises values in place ({!acquire}) reuses them,
    and binding or unbinding an id stores only ints. Slots start at 1. *)

type 'a t

val create : unit -> 'a t

val find_exn : 'a t -> int -> 'a
(** The value bound to an id. @raise Not_found when the id is unbound. *)

val acquire : 'a t -> id:int -> blank:(unit -> 'a) -> 'a
(** Bind [id] to a free slot and return its value, a released one or
    [blank ()] when no slot is free, for the caller to reinitialise. *)

val reclaim : 'a t -> id:int -> reusable:('a -> bool) -> blank:(unit -> 'a) -> unit
(** Unbind [id] and free its slot. A value [reusable] refuses may still
    be reached from outside, so the slot gets [blank ()] instead and the
    old value is left to the GC. No-op when [id] is unbound. *)

val blanks : 'a t -> int
(** Values built by [blank] so far. *)
