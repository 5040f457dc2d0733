(** File discovery, parsing, and report rendering for bfc-lint. *)

(** Repo-relative paths of the per-packet / per-event hot-path modules
    that get the feasibility (DF) family: the two BFC dataplanes, the
    stress/obs per-packet counters. *)
(* the lint tests check that every scan-set entry exists; bfc-lint: allow DC001 *)
val dataplane_files : string list

(** Repo-relative paths of the hot scheduling modules that get the perf
    (PF) family on top of {!dataplane_files}. *)
(* the lint tests check that every scan-set entry exists; bfc-lint: allow DC001 *)
val perf_files : string list

(** The switch program modules and the device modules (RB003 scope). *)
(* the lint tests check that every scan-set entry exists; bfc-lint: allow DC001 *)
val program_files : string list

(* the lint tests check that every scan-set entry exists; bfc-lint: allow DC001 *)
val device_files : string list

(** Lint one source text. [virtual_path] overrides [path] for scope
    classification and reporting (fixture tests lint files as if they lived
    on a dataplane path). Returns findings paired with their suppression
    status, or a parse-failure reason. *)
(* the lint tests lint fixture text through it; bfc-lint: allow DC001 *)
val lint_source :
  ?virtual_path:string -> path:string -> string -> ((Diagnostic.t * bool) list, string) result

type report = {
  files : int;
  findings : (Diagnostic.t * bool) list;
  failures : (string * string) list; (** files that could not be read or parsed *)
  dc001_error : string option;
      (** why the dead-code pass (DC001 and DC002) did not run
          ({!Dead.run}'s [Error]); [None] when it ran or was not asked
          for *)
}

(** Walk the given files/directories (recursively, [.ml] only, skipping
    [_build] and dot-dirs) and lint each. With [~build], also run DC001
    and DC002 ({!Dead.run}) over the compiled units under that build root;
    if they cannot run, the report says why in [dc001_error] and lists
    none of their findings. *)
val lint_paths : ?build:string -> string list -> report

(** Where DC001 and DC002 find the compiled units: [_build/default] when run from
    the repository root, else the current directory (dune runs [@lint]
    from inside the build directory). *)
val build_root : unit -> string

(** Unsuppressed findings. *)
(* observation: the lint tests read a report's violations; bfc-lint: allow DC001 *)
val violations : report -> Diagnostic.t list

(** 0 clean, 1 violations, 2 parse/IO failures or DC001/DC002 not run. *)
val exit_code : report -> int

val render_human : ?show_suppressed:bool -> report -> string

val render_json : report -> string

(** The rule table, one line per rule. *)
val render_rules : unit -> string
