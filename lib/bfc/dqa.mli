(** Dynamic queue assignment (§3.3.1).

    Per egress port, a bitmap of empty queues with a rotating scan start
    (mirroring Tofino2's per-pipeline rotation). A new flow takes an empty
    queue when one exists and a random one otherwise; [Stochastic] hashes
    statically (the strawman of §3.2); [Single] maps everything to queue 0
    (PFC-like, Fig. 8's "BFC + single"). *)

type policy = Dynamic | Stochastic | Single

type t

(** [create ~egresses ~queues ~policy ~rng] — [queues] = number of data
    queues eligible for assignment at each egress (reserved control queues
    excluded by the caller). All queues start empty. *)
val create : egresses:int -> queues:int -> policy:policy -> rng:Bfc_util.Rng.t -> t

(** [assign t ~egress ~fid_hash] picks a queue for a new flow. *)
val assign : t -> egress:int -> fid_hash:int -> int

(** Queue became empty: eligible for reassignment. *)
val mark_empty : t -> egress:int -> queue:int -> unit

(** Queue became occupied. *)
val mark_occupied : t -> egress:int -> queue:int -> unit

(* observation: tests read the empty-queue bitmap; bfc-lint: allow DC001 *)
val empty_count : t -> egress:int -> int

val is_empty_queue : t -> egress:int -> queue:int -> bool

(** Every queue back to empty, scan starts rewound (switch reboot). *)
val reset : t -> unit
