(** The parsetree pass implementing every rule. *)

type scope = {
  dataplane : bool;  (** feasibility family applies (per-packet BFC modules) *)
  lib : bool;  (** determinism + robustness families apply (under lib/) *)
  perf : bool;  (** perf family applies (hot scheduling paths) *)
  program : bool;  (** a switch program module: may write Switch.hooks fields *)
  device : bool;  (** a device module: may set Node.handler in its [create] *)
}

(** [run ~path ~scope suppress structure] returns every finding paired with
    whether a suppression comment covers it, sorted by location. [path] is
    used verbatim in diagnostics. *)
val run :
  path:string ->
  scope:scope ->
  Suppress.t ->
  Parsetree.structure ->
  (Diagnostic.t * bool) list
