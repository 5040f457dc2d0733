(** File discovery, parsing, and report rendering for bfc-lint. *)

(** Repo-relative paths of the per-packet / per-event hot-path modules
    that get the feasibility (DF) family: the two BFC dataplanes, the
    stress/obs per-packet counters. *)
val dataplane_files : string list

(** Repo-relative paths of the hot scheduling modules that get the perf
    (PF) family on top of {!dataplane_files}. *)
val perf_files : string list

(** The switch program modules and the device modules (RB003 scope). *)
val program_files : string list

val device_files : string list

(** Path → which rule families apply. Dataplane scope is any file ending in
    an entry of {!dataplane_files}; perf scope adds {!perf_files}; lib
    scope is any file under a [lib/] directory segment; program and
    device scope likewise follow {!program_files} and {!device_files}. *)
val scope_of_path : string -> Check.scope

(** Lint one source text. [virtual_path] overrides [path] for scope
    classification and reporting (fixture tests lint files as if they lived
    on a dataplane path). Returns findings paired with their suppression
    status, or a parse-failure reason. *)
val lint_source :
  ?virtual_path:string -> path:string -> string -> ((Diagnostic.t * bool) list, string) result

type report = {
  files : int;
  findings : (Diagnostic.t * bool) list;
  failures : (string * string) list;
}

(** Walk the given files/directories (recursively, [.ml] only, skipping
    [_build] and dot-dirs) and lint each. *)
val lint_paths : string list -> report

(** Unsuppressed findings. *)
val violations : report -> Diagnostic.t list

(** Findings covered by an allow comment. *)
val suppressed : report -> Diagnostic.t list

(** 0 clean, 1 violations, 2 parse/IO failures. *)
val exit_code : report -> int

val render_human : ?show_suppressed:bool -> report -> string

val render_json : report -> string

(** The rule table, one line per rule. *)
val render_rules : unit -> string
