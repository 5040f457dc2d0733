(** Scanner for [(* bfc-lint: ... *)] comment directives.

    The parsetree drops comments, so directives are recovered from the raw
    source text, line by line:

    - [(* bfc-lint: allow <rule> [<rule> ...] *)] suppresses the listed
      rules (by id, kebab name, or ["all"]) on the same line and the line
      below; placed on (or immediately above) the first line of a top-level
      binding it covers the whole binding.
    - [(* bfc-lint: control-plane *)] immediately above a top-level binding
      marks it control-plane: dataplane-feasibility rules are skipped inside
      (determinism and robustness rules still apply). *)

type t

val scan : string -> t

(** Rule keys allowed on [line] or the line above it. *)
val allows_near : t -> line:int -> string list

(** Is there a control-plane marker on [line] or the line above it? *)
val control_plane_near : t -> line:int -> bool
