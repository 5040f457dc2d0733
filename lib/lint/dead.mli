(** DC001 and DC002: the whole-program dead-code pass over dune's compiled
    units.

    It reads every [.cmt] and [.cmti] under a build root ([_build/default])
    and checks the [lib/] units against the units under [lib/], [bin/],
    [perfbench/] and [examples/]; tests do not count as callers.

    - DC001 reports each value exported from a [lib/] interface that no
      other unit references.
    - DC002 reports each field of a [lib/] record type that no unit reads
      and each constructor of a [lib/] variant type that no unit builds.
      A read is a field access, a record pattern naming the field, or a
      [{ r with ... }] that copies it; setting a field in a record
      expression or with [<-] is a write. A constructor in an expression
      is built; one in a pattern is only matched. A unit's own uses count.
      A type declared in both the [.ml] and the [.mli] is one declaration,
      reported in the [.mli].

    The compiler resolves the names: a use is the declaration uid of what
    it names, so aliases, mangled unit names, submodule paths and [open]s
    all reach the same declaration. A finding is suppressed by
    [(* <reason>; bfc-lint: allow DC001 *)] (or [DC002]) on or above its
    line. *)

(** Declaration uids an implementation uses: the values it references, the
    fields it reads and the constructors it builds. *)
(* the lint tests check name resolution through it; bfc-lint: allow DC001 *)
val references : Typedtree.structure -> Shape.Uid.t list

(** [run ?callers root] checks the [lib/] units under [root/lib] against
    the uses in the units under [root/<dir>] for each of [callers]
    (default the four directories above; [lib] always counts). Each
    finding is paired with whether an allow comment covers it. [Error]
    when [root/lib] holds no compiled interface, or when a unit it reads
    is stale: its source (in the workspace above a dune build root
    [<workspace>/_build/<context>], else in [root]) no longer has the
    digest it was compiled from, or an interface it imports has been
    rebuilt since. Findings from stale units would name the wrong
    declarations. *)
val run : ?callers:string list -> string -> ((Diagnostic.t * bool) list, string) result
