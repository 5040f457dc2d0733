(* The Ast_iterator pass implementing every rule.

   Scope model:
   - [lib] files (anything under a lib/ segment) get the determinism and
     robustness families;
   - [dataplane] files (the per-packet BFC dataplane modules) additionally
     get the feasibility family, except inside top-level bindings marked
     [(* bfc-lint: control-plane *)] (setup code that corresponds to the
     switch control plane loading the P4 program).

   Known limitations (documented in DESIGN.md): the pass sees one parsetree
   at a time, so it cannot follow calls across modules, and [let open]-style
   unqualified access to a flagged module escapes the identifier checks. *)

open Parsetree

type scope = { dataplane : bool; lib : bool; perf : bool }

(* Longident path as a string list, with any [Stdlib.] prefix dropped. *)
let path_of_lid lid =
  let rec go acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply (l, _) -> go acc l
  in
  match go [] lid with "Stdlib" :: rest -> rest | p -> p

let float_ops =
  [
    "+."; "-."; "*."; "/."; "**"; "~-."; "~+."; "float_of_int"; "int_of_float"; "float_of_string";
    "sqrt"; "log"; "exp"; "ceil"; "floor"; "mod_float"; "abs_float"; "atan"; "cos"; "sin";
  ]

let io_fns =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int"; "print_float"; "print_char";
    "prerr_string"; "prerr_endline"; "prerr_newline"; "output_string"; "output_char"; "output_bytes";
  ]

let wallclock_fns = [ "gettimeofday"; "time"; "gmtime"; "localtime"; "mktime"; "sleep"; "sleepf" ]

let is_sort_path = function
  | [ "List"; ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ] -> true
  | [ "Array"; ("sort" | "stable_sort") ] -> true
  | _ -> false

let run ~path ~(scope : scope) suppress (structure : structure) =
  let diags = ref [] in
  let sorted_depth = ref 0 in
  let binding_allows = ref [] in
  let control_plane = ref false in
  let dataplane_here () = scope.dataplane && not !control_plane in
  let perf_here () = scope.perf && not !control_plane in
  let report rule (loc : Location.t) message =
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    let col = loc.Location.loc_start.Lexing.pos_cnum - loc.Location.loc_start.Lexing.pos_bol in
    let suppressed =
      List.exists (Rule.matches rule) (Suppress.allows_near suppress ~line)
      || List.exists (Rule.matches rule) !binding_allows
    in
    diags := ({ Diagnostic.rule; file = path; line; col; message }, suppressed) :: !diags
  in
  let check_ident loc lid =
    match path_of_lid lid with
    | "List" :: fn :: _ when dataplane_here () ->
      report Rule.df_list loc (Printf.sprintf "List.%s on a per-packet path" fn)
    | ("Printf" | "Format" | "Buffer") :: fn :: _ when dataplane_here () ->
      report Rule.df_io loc
        (Printf.sprintf "%s.%s on a per-packet path" (List.hd (path_of_lid lid)) fn)
    | [ fn ] when dataplane_here () && List.mem fn io_fns ->
      report Rule.df_io loc (Printf.sprintf "%s on a per-packet path" fn)
    | (("Queue" | "Stack") as m) :: fn :: _ when perf_here () ->
      report Rule.pf_stdlib_queue loc
        (Printf.sprintf "%s.%s on a hot path; use an array ring" m fn)
    | ([ (("compare" | "max" | "min") as fn) ] | [ "Stdlib"; (("compare" | "max" | "min") as fn) ])
      when perf_here () ->
      report Rule.pf_poly_compare loc
        (Printf.sprintf "polymorphic %s on a hot path; use Int.%s (or Float.%s)" fn fn fn)
    | [ op ] when dataplane_here () && List.mem op float_ops ->
      report Rule.df_float loc (Printf.sprintf "float operation (%s) on a per-packet path" op)
    | "Float" :: fn :: _ when dataplane_here () ->
      report Rule.df_float loc (Printf.sprintf "Float.%s on a per-packet path" fn)
    | "Random" :: rest when scope.lib ->
      let fn = match rest with [] -> "Random" | l -> "Random." ^ String.concat "." l in
      report Rule.det_random loc (fn ^ " uses ambient global state")
    | [ "Unix"; fn ] when scope.lib && List.mem fn wallclock_fns ->
      report Rule.det_wallclock loc
        (Printf.sprintf "Unix.%s reads the wall clock; use Engine.Time or Bfc_util.Clock" fn)
    | [ "Sys"; "time" ] when scope.lib ->
      report Rule.det_wallclock loc "Sys.time reads the wall clock; use Engine.Time or Bfc_util.Clock"
    | "Unix" :: fn :: _ when scope.lib ->
      report Rule.det_unix loc
        (Printf.sprintf "Unix.%s touches ambient OS state; use the Bfc_util wrappers" fn)
    | [ "Hashtbl"; (("iter" | "fold") as fn) ] when scope.lib && !sorted_depth = 0 ->
      report Rule.det_hashtbl_order loc
        (Printf.sprintf
           "Hashtbl.%s order depends on the hash seed; sort the result by key (or allow if the \
            reduction is order-independent)"
           fn)
    | _ -> ()
  in
  (* Does an expression (possibly a partial application) head a sort call? *)
  let heads_sort e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> is_sort_path (path_of_lid txt)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> is_sort_path (path_of_lid txt)
    | _ -> false
  in
  let in_sorted f =
    incr sorted_depth;
    f ();
    decr sorted_depth
  in
  let expr (self : Ast_iterator.iterator) e =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
      check_ident loc txt;
      Ast_iterator.default_iterator.expr self e
    | Pexp_while (_, _) when dataplane_here () ->
      report Rule.df_while e.pexp_loc "while loop on a per-packet path";
      Ast_iterator.default_iterator.expr self e
    | Pexp_let (Recursive, _, _) when dataplane_here () ->
      report Rule.df_rec e.pexp_loc "recursive binding on a per-packet path";
      Ast_iterator.default_iterator.expr self e
    | Pexp_try (_, cases) ->
      if scope.lib then
        List.iter
          (fun c ->
            match (c.pc_lhs.ppat_desc, c.pc_guard) with
            | Ppat_any, None ->
              report Rule.rob_catchall c.pc_lhs.ppat_loc
                "catch-all handler swallows structured errors; match specific exceptions"
            | _ -> ())
          cases;
      Ast_iterator.default_iterator.expr self e
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
      when scope.lib ->
      report Rule.rob_assert_false e.pexp_loc
        "assert false aborts without context; raise a structured exception"
    | Pexp_apply (fn, args) -> (
      (* PF001: arming a timer with a closure literal allocates on every
         arm; hot paths must post typed events. Named partial applications
         pass. *)
      (if perf_here () then
         match fn.pexp_desc with
         | Pexp_ident { txt; _ } -> (
           match List.rev (path_of_lid txt) with
           | (("at" | "after") as tfn) :: "Sim" :: _
             when List.exists
                    (fun (_, a) ->
                      match a.pexp_desc with
                      | Pexp_fun _ | Pexp_function _ -> true
                      | _ -> false)
                    args ->
             report Rule.pf_closure_timer fn.pexp_loc
               (Printf.sprintf
                  "Sim.%s with a closure literal on a hot scheduling path; post a typed event \
                   (Sim.post)" tfn)
           | _ -> ())
         | _ -> ());
      match (fn.pexp_desc, args) with
      (* e |> List.sort cmp : the left-hand side flows into a sort *)
      | Pexp_ident { txt = Longident.Lident "|>"; _ }, [ (_, lhs); (_, rhs) ] when heads_sort rhs
        ->
        self.expr self rhs;
        in_sorted (fun () -> self.expr self lhs)
      (* List.sort cmp @@ e *)
      | Pexp_ident { txt = Longident.Lident "@@"; _ }, [ (_, lhs); (_, rhs) ] when heads_sort lhs
        ->
        self.expr self lhs;
        in_sorted (fun () -> self.expr self rhs)
      (* List.sort cmp (Hashtbl.fold ...) : arguments flow into the sort *)
      | _ when heads_sort fn ->
        self.expr self fn;
        in_sorted (fun () -> List.iter (fun (_, a) -> self.expr self a) args)
      | _ -> Ast_iterator.default_iterator.expr self e)
    | _ -> Ast_iterator.default_iterator.expr self e
  in
  let structure_item (self : Ast_iterator.iterator) si =
    match si.pstr_desc with
    | Pstr_value (rec_flag, _) ->
      let line = si.pstr_loc.Location.loc_start.Lexing.pos_lnum in
      let saved_allows = !binding_allows and saved_cp = !control_plane in
      binding_allows := Suppress.allows_near suppress ~line @ saved_allows;
      control_plane := saved_cp || Suppress.control_plane_near suppress ~line;
      if rec_flag = Recursive && dataplane_here () then
        report Rule.df_rec si.pstr_loc "recursive binding on a per-packet path";
      Ast_iterator.default_iterator.structure_item self si;
      binding_allows := saved_allows;
      control_plane := saved_cp
    | _ -> Ast_iterator.default_iterator.structure_item self si
  in
  let iter = { Ast_iterator.default_iterator with expr; structure_item } in
  iter.structure iter structure;
  List.sort
    (fun (a, _) (b, _) -> Diagnostic.compare a b)
    !diags
