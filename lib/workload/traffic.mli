(** Open-loop traffic generation (§6.2.1 Workloads).

    Converts a target load on the reference links (the core, in the paper's
    convention: "by X% load we mean X% load on the links in the core") into
    a flow arrival rate, draws sizes from an empirical distribution, and
    gaps from the configured arrival process. Incast events are overlaid
    separately (degree-N synchronized senders to one receiver). *)

type matrix =
  | Uniform  (** src and dst uniform among hosts, src <> dst *)
  | Rack_local of {
      local_frac : float; (** probability dst is in src's rack *)
      rack_of : int -> int;
    }
  | To_one of int  (** all flows to a single receiver *)

type spec = {
  hosts : int array;
  dist : Dist.t;
  arrivals : Arrivals.t;
  load : float; (** target utilization of the reference capacity *)
  ref_capacity_gbps : float; (** aggregate capacity of the reference links *)
  core_fraction : float;
      (** fraction of generated bytes that traverses the reference links
          (for uniform traffic on a Clos: 1 - (hosts_per_rack-1)/(N-1)) *)
  matrix : matrix;
  duration : Bfc_engine.Time.t;
  seed : int;
  prio_classes : int; (** flows assigned uniformly to [0, prio_classes) *)
}

(** [generate spec ~ids] draws flows sorted by arrival time; ids are
    allocated from the shared counter so several generators compose. *)
val generate : spec -> ids:int ref -> Bfc_net.Flow.t list

(** Single-receiver traffic (the star and rack microbenchmarks): flows
    from [hosts] to [dst] at [load] of one [gbps] link, one class. *)
val to_one :
  hosts:int array ->
  dst:int ->
  gbps:float ->
  dist:Dist.t ->
  arrivals:Arrivals.t ->
  load:float ->
  duration:Bfc_engine.Time.t ->
  seed:int ->
  ids:int ref ->
  Bfc_net.Flow.t list

type incast_spec = {
  i_hosts : int array;
  degree : int;
  agg_size : int; (** total bytes per incast event (paper: 20 MB) *)
  period : Bfc_engine.Time.t; (** one event per period (paper: 500 us) *)
  i_duration : Bfc_engine.Time.t;
  i_seed : int;
}

(** [period_for_load ~agg_size ~frac ~ref_capacity_gbps] — event period so
    that incast traffic averages [frac] of the reference capacity. *)
val period_for_load : agg_size:int -> frac:float -> ref_capacity_gbps:float -> Bfc_engine.Time.t

val generate_incast : incast_spec -> ids:int ref -> Bfc_net.Flow.t list

(** Long-lived flows starting at t=0 (microbenchmarks; size defaults to
    effectively infinite). *)
val long_lived :
  pairs:(int * int) array -> ?size:int -> ?start:Bfc_engine.Time.t -> ids:int ref -> unit -> Bfc_net.Flow.t list

(** Merge flow lists into arrival order. *)
val merge : Bfc_net.Flow.t list list -> Bfc_net.Flow.t list
