(* DC001 and DC002: the whole-program dead-code pass.

   Every declaration of a lib/ unit is keyed by the [Shape.Uid.t] the
   compiler gave it. A use anywhere carries the description the type
   checker found for the name, and that description, read from the
   interface's .cmi, carries the same uid however the name was written:
   through dune's wrapped-library alias ([Bfc_util.Rng.int]), the mangled
   unit ([Bfc_util__Rng.int]), a submodule path ([Packet.Pool.acquire]), an
   [open] or a module alias.

   DC001 checks the values an interface exports; a unit's uses of its own
   definitions do not keep an export alive. DC002 checks record fields and
   variant constructors, whose uses inside their own unit count. A unit's
   .ml and .mli number their uids apart: the unit's own uses carry the
   .ml's uids and every other unit's carry the .mli's, so a type declared
   in both is one declaration with two uids. *)

open Typedtree

let caller_dirs = [ "lib"; "bin"; "perfbench"; "examples" ]

(* Fold [f prefix acc] over the items of [s] and of its submodule
   signatures, [prefix] naming the submodule ("Pool."). *)
let rec fold_sig f prefix acc (s : signature) =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ }
        ->
        fold_sig f (prefix ^ m ^ ".") acc s
      | d -> f prefix acc d)
    acc s.sig_items

(* A declaration is (dotted name, location, uid, what a finding says of
   it). [exports s]: the values [s] exports. *)
let exports =
  fold_sig
    (fun prefix acc -> function
      | Tsig_value vd ->
        ( prefix ^ vd.val_name.txt,
          vd.val_loc,
          vd.val_val.Types.val_uid,
          "is exported but nothing outside the tests uses it" )
        :: acc
      | _ -> acc)
    "" []

(* The fields and constructors of a type: "t.field", "t.Constructor",
   "t.Constructor.field" for an inline record. *)
let members prefix acc (td : type_declaration) =
  let field prefix acc (ld : Types.label_declaration) =
    ( prefix ^ Ident.name ld.ld_id,
      ld.ld_loc,
      ld.ld_uid,
      "is a field that nothing outside the tests reads" )
    :: acc
  in
  let prefix = prefix ^ td.typ_name.txt ^ "." in
  match td.typ_type.type_kind with
  | Type_record (lds, _) -> List.fold_left (field prefix) acc lds
  | Type_variant (cds, _) ->
    List.fold_left
      (fun acc (cd : Types.constructor_declaration) ->
        let name = prefix ^ Ident.name cd.cd_id in
        let acc =
          (name, cd.cd_loc, cd.cd_uid, "is a constructor that nothing outside the tests builds")
          :: acc
        in
        match cd.cd_args with
        | Cstr_record lds -> List.fold_left (field (name ^ ".")) acc lds
        | Cstr_tuple _ -> acc)
      acc cds
  | Type_abstract | Type_open -> acc

let sig_members =
  fold_sig
    (fun prefix acc -> function
      | Tsig_type (_, tds) -> List.fold_left (members prefix) acc tds
      | _ -> acc)
    "" []

let rec str_members prefix acc (s : structure) =
  let rec body me =
    match me.mod_desc with
    | Tmod_structure s -> Some s
    | Tmod_constraint (me, _, _, _) -> body me
    | _ -> None
  in
  List.fold_left
    (fun acc item ->
      match item.str_desc with
      | Tstr_type (_, tds) -> List.fold_left (members prefix) acc tds
      | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } -> (
        match body mb_expr with Some s -> str_members (prefix ^ m ^ ".") acc s | None -> acc)
      | _ -> acc)
    acc s.str_items

(* Declaration uids a structure uses: the values it names, the record
   fields it reads (a field access, a record pattern, a field that
   [{ r with ... }] copies) and the constructors it builds. Writing a field
   (a record expression, [<-]) or matching a constructor is no use, and
   neither is reading a field on the right-hand side of an assignment to
   that same field ([x.f <- x.f + 1]): the value only flows back into
   [f]. *)
let references (s : structure) =
  let refs = ref [] in
  let add uid = refs := uid :: !refs in
  let assigning = ref None in
  let expr self e =
    match e.exp_desc with
    | Texp_setfield (target, _, l, rhs) ->
      self.Tast_iterator.expr self target;
      let outer = !assigning in
      assigning := Some l.lbl_uid;
      self.expr self rhs;
      assigning := outer
    | desc ->
      (match desc with
      | Texp_ident (_, _, vd) -> add vd.Types.val_uid
      | Texp_field (_, _, l) ->
        if not (Option.equal Shape.Uid.equal !assigning (Some l.lbl_uid)) then add l.lbl_uid
      | Texp_record { fields; _ } ->
        Array.iter (function l, Kept _ -> add l.Types.lbl_uid | _, Overridden _ -> ()) fields
      | Texp_construct (_, c, _) -> add c.cstr_uid
      | _ -> ());
      Tast_iterator.default_iterator.expr self e
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun self p ->
    (match p.pat_desc with
    | Tpat_record (fields, _) -> List.iter (fun (_, l, _) -> add l.Types.lbl_uid) fields
    | _ -> ());
    Tast_iterator.default_iterator.pat self p
  in
  let it = { Tast_iterator.default_iterator with expr; pat } in
  it.structure it s;
  !refs

(* Every .cmt/.cmti under [dir], dune's hidden object directories included. *)
let rec units dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then units path acc
        else if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti" then
          path :: acc
        else acc)
      acc entries

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* [rule]'s findings among [decls], declared in [src]. *)
let findings rule root src decls =
  match decls with
  | [] -> []
  | _ ->
    let suppress = Suppress.scan (read_file (Filename.concat root src)) in
    let unit_name = String.capitalize_ascii (Filename.remove_extension (Filename.basename src)) in
    List.map
      (fun (name, (loc : Location.t), _, what) ->
        let line = loc.loc_start.pos_lnum in
        ( {
            Diagnostic.rule;
            file = src;
            line;
            col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
            message = Printf.sprintf "%s.%s %s" unit_name name what;
          },
          List.exists (Rule.matches rule) (Suppress.allows_near suppress ~line) ))
      decls

(* [src] as the workspace holds it: a dune build root is
   <workspace>/_build/<context>. Files dune generates, such as a library's
   alias module, exist only in the build root. *)
let source root src =
  let up = Filename.parent_dir_name in
  let ws = List.fold_left Filename.concat root [ up; up; src ] in
  if Sys.file_exists ws then ws else Filename.concat root src

(* Does [cmt]'s source differ from what was compiled? *)
let source_changed root (cmt : Cmt_format.cmt_infos) =
  match (cmt.cmt_sourcefile, cmt.cmt_source_digest) with
  | Some src, Some d ->
    let p = source root src in
    (not (Sys.file_exists p)) || not (Digest.equal (Digest.file p) d)
  | _ -> false

let run ?(callers = caller_dirs) root =
  (* (uid, used by its own unit) of every use *)
  let used = Hashtbl.create 8192 in
  (* the lib/ units' .mli and .ml: (unit, source, typedtree) *)
  let interfaces = ref [] and implementations = ref [] in
  (* interface digests by unit, and every unit's (name, imported digests) *)
  let crcs = Hashtbl.create 256 and imports = ref [] in
  let read dir path =
    let cmt = Cmt_format.read_cmt path in
    let unit = cmt.cmt_modname in
    Option.iter (Hashtbl.replace crcs unit) cmt.cmt_interface_digest;
    imports := (unit, cmt.cmt_imports) :: !imports;
    if source_changed root cmt then
      Some (unit, Option.get cmt.cmt_sourcefile ^ " changed since it was compiled")
    else begin
      (match (cmt.cmt_annots, cmt.cmt_sourcefile) with
      | Implementation s, src ->
        List.iter
          (fun (uid : Shape.Uid.t) ->
            match uid with
            | Item { comp_unit; _ } -> Hashtbl.replace used (uid, comp_unit = unit) ()
            | _ -> ())
          (references s);
        Option.iter
          (fun src -> if dir = "lib" then implementations := (unit, src, s) :: !implementations)
          src
      | Interface s, Some src when dir = "lib" -> interfaces := (unit, src, s) :: !interfaces
      | _ -> ());
      None
    end
  in
  let changed =
    List.concat_map
      (fun dir -> List.filter_map (read dir) (units (Filename.concat root dir) []))
      (List.sort_uniq compare ("lib" :: callers))
  in
  (* a unit compiled against an interface that has since been rebuilt *)
  let outdated (unit, imps) =
    List.find_map
      (fun (name, d) ->
        match (d, Hashtbl.find_opt crcs name) with
        | Some d, Some now when not (Digest.equal d now) ->
          Some (unit, "compiled against an older " ^ name)
        | _ -> None)
      imps
  in
  match (changed, List.find_map outdated !imports) with
  | (unit, why) :: _, _ | [], Some (unit, why) ->
    Error
      (Printf.sprintf "compiled unit %s is stale (%s); rebuild with dune build @check" unit why)
  | [], None when !interfaces = [] ->
    Error (Printf.sprintf "no compiled lib/ interfaces under %s; build first" root)
  | [], None ->
    let ext uid = Hashtbl.mem used (uid, false) and own uid = Hashtbl.mem used (uid, true) in
    let dead_exports (_, src, s) =
      findings Rule.dc_dead_export root src
        (List.filter (fun (_, _, uid, _) -> not (ext uid)) (exports s))
    in
    (* A member the .mli declares is reported there, one only the .ml
       declares in the .ml. *)
    let dead_members (unit, src, s) =
      let ml = str_members "" [] s and rule = Rule.dc_unused_member in
      match List.find_opt (fun (u, _, _) -> u = unit) !interfaces with
      | None ->
        findings rule root src (List.filter (fun (_, _, uid, _) -> not (own uid || ext uid)) ml)
      | Some (_, isrc, i) ->
        let mli = sig_members i in
        let in_mli name = List.exists (fun (n, _, _, _) -> n = name) mli in
        let used_in_ml name = List.exists (fun (n, _, uid, _) -> n = name && own uid) ml in
        findings rule root isrc
          (List.filter (fun (name, _, uid, _) -> not (ext uid || used_in_ml name)) mli)
        @ findings rule root src
            (List.filter (fun (name, _, uid, _) -> not (own uid || in_mli name)) ml)
    in
    Ok
      (List.sort
         (fun (a, _) (b, _) -> Diagnostic.compare a b)
         (List.concat_map dead_exports !interfaces @ List.concat_map dead_members !implementations))
