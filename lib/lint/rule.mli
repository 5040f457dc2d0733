(** Lint rule registry.

    Five families, mirroring the properties the reproduction depends on:

    - {b feasibility} (DF rules): the BFC dataplane of paper section 3.3
      only fits Tofino2 because every per-packet operation is constant-time
      over bounded integer state. These rules fence the per-packet paths of
      the dataplane modules.
    - {b determinism} (DT rules): the simulator must replay identically from
      a seed, across OCaml hash seeds and wall-clock conditions.
    - {b robustness} (RB rules): packet-path failures must raise structured,
      diagnosable errors.
    - {b perf} (PF rules): the engine's steady state is allocation-free;
      these rules keep closure allocation off the hot scheduling paths.
    - {b dead code} (DC rules): every export of a lib/ interface has a
      caller outside the tests, every field of a lib/ record a reader and
      every constructor a builder; a whole-program pass over the compiled
      units ({!Dead}). *)

type family = Feasibility | Determinism | Robustness | Perf | Dead_code

type severity = Error | Warning

type t = {
  id : string;  (** stable short id, e.g. ["DF001"] *)
  name : string;  (** kebab-case name usable in suppression comments *)
  family : family;
  severity : severity;
  doc : string;
}

val family_to_string : family -> string

val severity_to_string : severity -> string

val df_list : t

val df_while : t

val df_rec : t

val df_float : t

val df_io : t

val det_random : t

val det_wallclock : t

val det_unix : t

val det_hashtbl_order : t

val rob_catchall : t

val rob_assert_false : t

val rob_hook_write : t

val pf_closure_timer : t

val pf_stdlib_queue : t

val pf_poly_compare : t

val dc_dead_export : t

val dc_unused_member : t

(** Every rule, in id order. *)
val all : t list

(** [matches r key] — does suppression token [key] cover rule [r]? Accepts
    the rule id, the kebab name, or ["all"]. *)
val matches : t -> string -> bool
