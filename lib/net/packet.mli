(** Packets: the unit of transmission, queueing and flow control.

    One flat mutable record covers data, acknowledgement and control
    packets; protocols use the fields they need (mirroring how real headers
    stack optional fields). Per-hop BFC scratch fields ([bp_*]) are
    overwritten at every switch, exactly like metadata in a switch
    pipeline. All fields are mutable so packets can be recycled through
    {!Pool} without allocation on the hot path. The record carries only
    what every scheme needs: HPCC's INT stack, a pause bitmap's payload
    and the SRF header field live in side tables of the packet's
    {!Pool}. *)

type kind =
  | Data
  | Ack  (** cumulative ack; [seq] = next expected byte *)
  | Nack  (** Go-Back-N: receiver asks for retransmit from [seq] *)
  | Credit  (** ExpressPass credit *)
  | Credit_req  (** ExpressPass: sender asks the receiver to start crediting *)
  | Grant  (** Homa grant; [ctrl_a] = grant offset, [ctrl_b] = priority *)
  | Pause  (** BFC pause; [ctrl_a] = upstream queue id *)
  | Resume  (** BFC resume; [ctrl_a] = upstream queue id *)
  | Pause_bitmap  (** BFC periodic refresh; {!Pool.bitmap} = paused queue ids *)
  | Hop_credit
      (** hop-by-hop credit return (lossless BFC variant, §5):
          [ctrl_a] = upstream queue id, [ctrl_b] = bytes returned *)
  | Pfc  (** PFC pause/resume; [ctrl_a] = class, [ctrl_b] = 1 pause / 0 resume *)
  | Cnp  (** DCQCN congestion notification *)

type int_hop = {
  mutable h_ts : Bfc_engine.Time.t;
  mutable h_tx_bytes : int;
  mutable h_qlen : int;
  mutable h_gbps : float;
  mutable h_link : int; (** global port id, for per-link delay accounting *)
}

(** A packet. Its small fields share five packed words, so a packet is
    8 fields (a 9-word heap block) and holds no pointer; read and write
    every field with the accessors below. A setter raises
    [Invalid_argument] for a value its field cannot hold; each range has
    headroom over the port, queue and node-id limits that
    [Switch.create], [Nic.create] and [Runner.inject_mtu] enforce. *)
type t

val kind : t -> kind

(** {2 The packet's flow}

    A packet names its flow the way a switch sees it, by header fields
    only: the flow's id, its slot in the sim's flow table
    ({!Flow.Table}) and its incast label, packed into one int, the flow
    word ({!ref_of}). The word is [no_flow] (id and slot [-1]) for a
    packet of no flow. An end host reads the record as [Flow.Table.get table slot],
    after checking with [Flow.Table.holds] that the slot still holds
    flow [id]. *)

(** The flow word of no flow: {!fid} and {!flow_slot} read [-1]. *)
val no_flow : int

(** The flow word of a record, from its [slot], [id] and [is_incast]. An
    [id] outside [-1 .. 2^32 - 2] or a [slot] outside [-1 .. 2^30 - 2]
    raises [Invalid_argument]. *)
val ref_of : Flow.t -> int

(** A flow word's id. *)
val ref_id : int -> int

(** A flow word's slot. *)
val ref_slot : int -> int

(** The packet's flow word. *)
val flow : t -> int

(** The flow's id, [-1] for no flow. *)
val fid : t -> int

(** The flow's slot in the sim's flow table, [-1] when it has none. *)
val flow_slot : t -> int

(** The flow's incast label (§6.3). *)
val incast : t -> bool

(** Destination node: [-1 .. 2^31 - 2]. *)
val dst : t -> int

(** Bytes on the wire: [0 .. 65535]. *)
val size : t -> int

(** Data bytes carried ([<= size]): [0 .. 65535]. *)
val payload : t -> int

val seq : t -> int

(** Scheduling priority class; 0 = highest. Range [-1 .. 8190]. *)
val prio : t -> int

val set_prio : t -> int -> unit

(** BFC: the sender-side queue at the upstream device. Range
    [-1 .. 16382], as for [bp_in_port] and [bp_upq]. *)
val upstream_q : t -> int

val set_upstream_q : t -> int -> unit

(** BFC per-hop scratch: the ingress port the packet's pause count sits
    under, [-1] when none. *)
val bp_in_port : t -> int

val set_bp_in_port : t -> int -> unit

(** BFC per-hop scratch: the upstream queue of that pause count, [-1]
    when none. *)
val bp_upq : t -> int

val set_bp_upq : t -> int -> unit

val sent_at : t -> Bfc_engine.Time.t

val set_sent_at : t -> Bfc_engine.Time.t -> unit

val enq_at : t -> Bfc_engine.Time.t

val set_enq_at : t -> Bfc_engine.Time.t -> unit

(** A control packet's first argument (see {!kind}): a queue id, a Homa
    grant offset or an ExpressPass credit count. Range
    [-1 .. 2^41 - 2], room for a grant offset into a 2^40-byte flow. *)
val ctrl_a : t -> int

val set_ctrl_a : t -> int -> unit

(** A packet's second argument: the FIN and PFC pause bits, a Homa grant
    priority or the bytes a [Hop_credit] returns. Range
    [0 .. 2^22 - 1]. *)
val ctrl_b : t -> int

val set_ctrl_b : t -> int -> unit

(** Index in its simulation's packet table ({!Pool}), fixed once the table
    first sees the packet; [-1] before that. Range [-1 .. 2^31 - 2]. Only
    the pool writes it. *)
(* observation: tests read an index without assigning one; bfc-lint: allow DC001 *)
val idx : t -> int

(** The next packet's index in the list that holds this one, [-1] at its
    end: the queue that holds a live packet ({!Bfc_switch.Fifo}), or the
    free list of a parked one. Range [-1 .. 2^31 - 2]. Only the pool and
    a queue write it. *)
val link : t -> int

val set_link : t -> int -> unit

(** Is the packet parked in its table's free list ({!Pool.release})? A
    parked packet is in no queue. *)
val parked : t -> bool

(** Congestion experienced: set by a switch's ECN marking. *)
val ecn : t -> bool

val set_ecn : t -> bool -> unit

(** An ack's echo of the acknowledged data packet's [ecn] (DCTCP). *)
val ecn_echo : t -> bool

val set_ecn_echo : t -> bool -> unit

(** BFC: this packet holds a count in the pause counter of
    ([bp_in_port], [bp_upq]), to be released at dequeue. *)
val bp_counted : t -> bool

val set_bp_counted : t -> bool -> unit

(** BFC recirculation-sampling variant: is the packet bookkept in the flow
    table? [true] in a fresh packet. *)
val bp_sampled : t -> bool

val set_bp_sampled : t -> bool -> unit

val header_bytes : int

val ack_bytes : int

val ctrl_bytes : int

(** [make kind ~flow ~dst ~size ...] — a fresh packet, outside any
    {!Pool} until one indexes it. *)
(* tests build standalone packets outside a pool; bfc-lint: allow DC001 *)
val make :
  kind ->
  ?flow:Flow.t ->
  dst:int ->
  size:int ->
  ?payload:int ->
  ?seq:int ->
  ?prio:int ->
  unit ->
  t

(** [data ~flow ~seq ~payload ~extra_header] — a data packet of the flow;
    wire size = payload + header + extra_header. *)
(* tests build standalone data packets outside a pool; bfc-lint: allow DC001 *)
val data :
  flow:Flow.t -> seq:int -> payload:int -> ?extra_header:int -> unit -> t

(** An inert packet (index [-1]): what a dequeue returns when nothing is
    eligible. It is never sent, queued or pooled, and must not be
    mutated. *)
val placeholder : t

(** The per-simulation packet table and its free list. Every packet a
    simulation queues or has in flight has an index in its table
    ({!index}), stable for the packet's life, so queues and events name
    packets by int — stores that take no GC write barrier. [release]
    resets every mutable field to the [make] defaults, empties the packet's
    INT stack, bitmap and [remaining] (keeping its INT-hop records and its
    index) and parks the packet; [acquire] hands a parked packet back.
    Double release raises [Invalid_argument]. One table per simulation,
    reached with {!Port.pool} — packets never migrate between domains.

    The table also keeps, by packet index, the fields only one scheme
    reads: HPCC's INT stack, a BFC pause bitmap's payload and SRF's
    [remaining]. Each side table is created on its first use, so a run
    without INT stamping, pause bitmaps or SRF allocates nothing for them.
    The functions that read or write them index an unindexed packet
    first, like {!index}. *)
module Pool : sig
  type packet = t

  type t

  (** A fresh, empty table. A simulation's devices share the one
      {!Port.pool} returns. *)
  val create : unit -> t

  (** [index pool p] is [p]'s index in [pool], assigning the next one if
      [p] has none yet (a packet built with {!make}). Raises
      [Invalid_argument] if [p] is indexed by another table. *)
  val index : t -> packet -> int

  (** [get pool i] is the packet at index [i]. *)
  val get : t -> int -> packet

  (** [holds pool i]: has [pool] given out index [i]? *)
  val holds : t -> int -> bool

  (** [acquire pool kind ~flow ~dst ~size ~seq] — a recycled (or, when
      the free list is empty, fresh) packet with [make]'s defaults in every
      other field. It takes no optional argument, since a call site boxes
      every optional argument it passes. [~flow] is a flow word
      ({!flow_ref}), stored as given. *)
  val acquire : t -> kind -> flow:int -> dst:int -> size:int -> seq:int -> packet

  (** Mirrors {!val:Packet.data} but draws from the pool: a data packet of
      flow word [~flow], to [~dst] at priority [~prio]. *)
  val data :
    t ->
    flow:int ->
    dst:int ->
    prio:int ->
    seq:int ->
    payload:int ->
    extra_header:int ->
    packet

  (** [release pool p] parks [p] for reuse; its index stays [p]'s. [p]
      is indexed first if it has no index yet. *)
  val release : t -> packet -> unit

  (** {2 INT stack (HPCC)} *)

  (** [add_int_hop pool p ~ts ~tx_bytes ~qlen ~gbps ~link] appends an INT
      record to [p]'s stack, reusing [p]'s hop records (no allocation once
      its storage has grown to the path length). *)
  val add_int_hop :
    t ->
    packet ->
    ts:Bfc_engine.Time.t ->
    tx_bytes:int ->
    qlen:int ->
    gbps:float ->
    link:int ->
    unit

  (** Records on [p]'s INT stack; 0 when it has none. *)
  val int_hop_count : t -> packet -> int

  (** [p]'s INT storage: its first {!int_hop_count} records are the hops
      stamped so far, in path order. The records are reused once [p] is
      released, so read them before. *)
  val int_hops : t -> packet -> int_hop array

  (** [copy_int_hops pool ~src ~dst] copies [src]'s INT stack field by
      field into [dst]'s own records — no structure sharing, so recycling
      [src] cannot corrupt [dst]. *)
  val copy_int_hops : t -> src:packet -> dst:packet -> unit

  (** {2 Pause bitmap (BFC)} *)

  (** The queue ids a [Pause_bitmap] packet lists as paused; [[||]] when
      none were set. *)
  val bitmap : t -> packet -> int array

  (** [set_bitmap pool p ids] makes [ids] [p]'s bitmap payload. The array
      is kept, not copied. *)
  val set_bitmap : t -> packet -> int array -> unit

  (** {2 Remaining bytes (SRF)} *)

  (** The sender's remaining bytes that [p] carries (the SRF header
      field); 0 until set. *)
  val remaining : t -> packet -> int

  val set_remaining : t -> packet -> int -> unit

  (** Index slots the side tables hold: 0 until some packet gets an INT
      stack, a non-empty bitmap or a non-zero [remaining]. *)
  (* observation: tests read the side tables' size; bfc-lint: allow DC001 *)
  val side_slots : t -> int

  (** Packets currently parked in the free list. *)
  val free_count : t -> int

  (** Fresh allocations made because the free list was empty. *)
  val allocated : t -> int

  (** Acquisitions served from the free list. *)
  val recycled : t -> int
end
