(* DC001: the whole-program dead-export pass.

   Every value of a lib/ interface is keyed by the [Shape.Uid.t] the
   compiler gave its declaration in the .mli. A reference anywhere carries
   the value description the type checker found for it, and that
   description, read from the interface's .cmi, carries the same uid
   however the name was written: through dune's wrapped-library alias
   ([Bfc_util.Rng.int]), the mangled unit ([Bfc_util__Rng.int]), a
   submodule path ([Packet.Pool.acquire]), an [open] or a module alias.
   A unit's references to its own definitions do not keep an export alive. *)

open Typedtree

let caller_dirs = [ "lib"; "bin"; "perfbench"; "bench"; "examples" ]

(* (dotted name, location, uid) of every value a signature exports. *)
let rec exports prefix acc (s : signature) =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd -> (prefix ^ vd.val_name.txt, vd.val_loc, vd.val_val.Types.val_uid) :: acc
      | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ }
        ->
        exports (prefix ^ m ^ ".") acc s
      | _ -> acc)
    acc s.sig_items

let references (s : structure) =
  let refs = ref [] in
  let expr self e =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> refs := vd.Types.val_uid :: !refs
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
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

let finding src suppress (name, (loc : Location.t), _) =
  let line = loc.loc_start.pos_lnum in
  let unit_name = String.capitalize_ascii (Filename.remove_extension (Filename.basename src)) in
  ( {
      Diagnostic.rule = Rule.dc_dead_export;
      file = src;
      line;
      col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
      message =
        Printf.sprintf "%s.%s is exported but nothing outside the tests uses it" unit_name name;
    },
    List.exists (Rule.matches Rule.dc_dead_export) (Suppress.allows_near suppress ~line) )

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
  let live = Hashtbl.create 4096 and interfaces = ref [] in
  (* interface digests by unit, and every unit's (name, imported digests) *)
  let crcs = Hashtbl.create 256 and imports = ref [] in
  let read dir path =
    let cmt = Cmt_format.read_cmt path in
    Option.iter (Hashtbl.replace crcs cmt.cmt_modname) cmt.cmt_interface_digest;
    imports := (cmt.cmt_modname, cmt.cmt_imports) :: !imports;
    if source_changed root cmt then
      Some (cmt.cmt_modname, Option.get cmt.cmt_sourcefile ^ " changed since it was compiled")
    else begin
      (match (cmt.cmt_annots, cmt.cmt_sourcefile) with
      | Implementation s, _ ->
        (* A unit's .ml and .mli number their uids apart, so a uid of the
           unit's own is one of its local definitions. *)
        List.iter
          (fun (uid : Shape.Uid.t) ->
            match uid with
            | Item { comp_unit; _ } when comp_unit = cmt.cmt_modname -> ()
            | _ -> Hashtbl.replace live uid ())
          (references s)
      | Interface s, Some src when dir = "lib" -> interfaces := (src, s) :: !interfaces
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
    let dead (src, s) =
      let suppress = Suppress.scan (read_file (Filename.concat root src)) in
      List.filter_map
        (fun ((_, _, uid) as e) ->
          if Hashtbl.mem live uid then None else Some (finding src suppress e))
        (exports "" [] s)
    in
    Ok (List.sort (fun (a, _) (b, _) -> Diagnostic.compare a b) (List.concat_map dead !interfaces))
