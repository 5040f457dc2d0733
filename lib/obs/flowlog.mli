(** Versioned binary flow-trace format with bounded-memory streaming I/O.

    On disk: a 16-byte header (magic ["BFCFLOG1"], version, record size)
    followed by self-delimiting chunks. Each chunk stores up to a few
    thousand records in struct-of-arrays form (a count, then one column
    per field), all little-endian and fixed-size — 48 bytes per record.

    The {!Writer} buffers one chunk and serialises it in a single write;
    the reader holds one chunk at a time, so arbitrarily large traces
    stream through O(chunk) memory in both directions. A trace cut short
    mid-chunk (a killed run) is still readable up to the last complete
    chunk; the reader reports the damage via its [truncated] flag instead
    of failing. *)

type record = {
  id : int;
  src : int; (* host indices *)
  dst : int;
  size : int; (* bytes *)
  incast : bool;
  prio_class : int;
  arrival : float; (* seconds *)
  fct : float;
  ideal : float; (* ideal (unloaded) FCT; slowdown = fct / ideal *)
}

module Writer : sig
  type t

  (** [create ?chunk oc] writes the header immediately and buffers up to
      [chunk] records (default {!default_chunk}) between flushes. The
      caller retains ownership of [oc]. *)
  val create : ?chunk:int -> out_channel -> t

  val append : t -> record -> unit

  (** Flush the partial chunk and the channel buffer. The channel stays
      open; [append] after [close] starts a new chunk and is valid. *)
  val close : t -> unit
end

(** [iter_file path ~f] streams every complete record through [f] in file
    order, holding one chunk at a time, and returns a [truncated] flag:
    [true] when the file ends mid-chunk (the partial chunk is dropped).
    Raises [Invalid_argument] on a bad header. *)
val iter_file : string -> f:(record -> unit) -> bool
