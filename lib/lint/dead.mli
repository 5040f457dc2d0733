(** DC001: the whole-program dead-export pass over dune's compiled units.

    It reads every [.cmt] and [.cmti] under a build root ([_build/default])
    and reports each value exported from a [lib/] interface that no unit
    under [lib/], [bin/], [perfbench/], [bench/] or [examples/] references.
    Tests do not count as callers. The compiler resolves the names: a
    reference is the declaration uid of the value it names, so aliases,
    mangled unit names, submodule paths and [open]s all reach the same
    export. A finding is suppressed by [(* <reason>; bfc-lint: allow DC001 *)]
    on or above its [val]. *)

(** Declaration uids of every value an implementation references. *)
(* the lint tests check name resolution through it; bfc-lint: allow DC001 *)
val references : Typedtree.structure -> Shape.Uid.t list

(** [run ?callers root] checks the interfaces under [root/lib] against the
    references of the units under [root/<dir>] for each of [callers]
    (default the five directories above; [lib] always counts). Each finding
    is paired with whether an allow comment covers it. [Error] when
    [root/lib] holds no compiled interface, or when a unit it reads is
    stale: its source (in the workspace above a dune build root
    [<workspace>/_build/<context>], else in [root]) no longer has the
    digest it was compiled from, or an interface it imports has been
    rebuilt since. Findings from stale units would name the wrong
    declarations. *)
val run : ?callers:string list -> string -> ((Diagnostic.t * bool) list, string) result
