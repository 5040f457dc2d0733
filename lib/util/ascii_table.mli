(** Minimal fixed-width table rendering for bench/experiment output. *)

(** [render ~header rows] lays out all cells left-aligned, padding columns to
    the widest cell, with a rule under the header. *)
(* observation: tests read what print writes; bfc-lint: allow DC001 *)
val render : header:string list -> string list list -> string

(** [print ~title ~header rows] renders with a title line to stdout. *)
val print : title:string -> header:string list -> string list list -> unit

(** Format a float compactly ("12.3", "0.0012", "1.2e+09"). *)
val float_cell : float -> string
