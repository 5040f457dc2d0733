(** ExpressPass switch behaviour: per-egress credit-queue rate limiting.

    Credits are queued separately, capped at [credit_cap] packets (drops
    beyond, which is the congestion signal), and drained at one credit per
    data-MTU serialization time — so the data the credits trigger can never
    exceed the link rate (the paper's "credits are rate-limited at the
    switches to avoid congestion"). *)

(** [attach sw ~mtu_wire] installs the hooks (composes with the default
    FIFO data path). *)
val attach : Bfc_switch.Switch.t -> mtu_wire:int -> unit
