(** Registry of every table/figure reproduction (see DESIGN.md's
    per-experiment index). Each target maps to a function producing
    printable tables at the requested profile. *)

type target = {
  t_name : string; (** e.g. "fig9", "table1" *)
  t_what : string; (** one-line description *)
  t_run : Exp_common.profile -> Exp_common.table list;
}

val all : target list

(** [resolve names] looks each name up in {!all}, keeping the order
    given; no names means every target. [Error] names the first unknown
    target. *)
val resolve : string list -> (target list, string) result

(** Run one target and print its tables, with wall-clock timing; also
    write each table as CSV into [csv_dir] when given. The ambient
    {!Pool} job count is [jobs] for the duration of the run, so every
    sweep inside the target fans out over that many domains. Tables (and
    CSVs) are byte-identical at any [jobs]: only wall-clock time changes.
    Returns the tables. *)
val run :
  ?csv_dir:string -> jobs:int -> Exp_common.profile -> target -> Exp_common.table list
