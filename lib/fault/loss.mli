(** Packet-loss model for fault injection.

    A loss model is an ordered list of rules, each a matcher (which packets
    it applies to) plus a firing mode: probabilistic (an independent coin
    per matching packet), exactly-the-nth matching packet (deterministic,
    for reproducing a specific lost frame), or every-nth (steady
    deterministic loss). Corruption is modelled as loss — a corrupted frame
    fails its CRC and is discarded by the receiver — but counted
    separately.

    Install a model on a directed link via {!Injector.set_loss}; the port
    calls {!decide} once per packet put on the wire. *)

type t

(** [create ~seed] — the seed drives the probabilistic rules only;
    deterministic rules never consume randomness. *)
val create : seed:int -> t

(** {2 Matchers} *)

val data : Bfc_net.Packet.t -> bool

(** Pause, Resume, pause-bitmap and PFC frames. *)
val ctrl : Bfc_net.Packet.t -> bool

val resumes : Bfc_net.Packet.t -> bool

(** {2 Rules} *)

(** Lose each matching packet independently with probability [p].
    Raises [Invalid_argument] unless [0 <= p <= 1]. *)
val add_prob : t -> ?corrupt:bool -> p:float -> (Bfc_net.Packet.t -> bool) -> unit

(** Lose exactly the [n]-th matching packet (1-based), once. *)
val add_nth : t -> ?corrupt:bool -> n:int -> (Bfc_net.Packet.t -> bool) -> unit

(** [decide t pkt] — should this packet be lost? Advances the
    deterministic counters of every matching rule. *)
val decide : t -> Bfc_net.Packet.t -> bool

(** Packets lost to [corrupt] rules. *)
val corrupted : t -> int

val total : t -> int
