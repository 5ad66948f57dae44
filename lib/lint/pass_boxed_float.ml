(* boxed-float — no mutable float field beside non-float fields in lib/.

   OCaml stores the fields of a record whose fields are all floats
   unboxed, in one flat block.  In any other record a float field holds
   a pointer to a boxed float, so every write of a freshly computed
   value to a [mutable] float field allocates a 2-word box.  On the
   simulator's hot path (the engine, the fabric, compute charges) those
   boxes were a large share of the minor heap; docs/PERFORMANCE.md
   explains the all-float-record idiom that replaces them.

   Flagged: each [mutable] field of type [float] (or [Float.t]) in a
   record type declaration that also has a field of any other type.
   Immutable float fields are not flagged: they are boxed once, when
   the record is built.  Variant constructors with inline records are
   not checked.

   A deliberate exception — a cold gauge, or a field that shares a box
   made elsewhere instead of allocating one — carries
   [@dlint.allow "boxed-float: <why>"] on the field, or
   [@@dlint.allow "boxed-float: <why>"] on the type. *)

let name = "boxed-float"

let doc =
  "mutable float fields in records that also hold non-float fields: \
   every write boxes; use an all-float record"

let is_float (ct : Parsetree.core_type) =
  match ct.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, []) -> (
      match Lint.ident_name txt with
      | "float" | "Float.t" | "Stdlib.float" | "Stdlib.Float.t" -> true
      | _ -> false)
  | _ -> false

let check_decl ctx (td : Parsetree.type_declaration) =
  match td.ptype_kind with
  | Ptype_record labels
    when List.exists
           (fun (l : Parsetree.label_declaration) -> not (is_float l.pld_type))
           labels ->
      List.iter
        (fun (l : Parsetree.label_declaration) ->
          if l.pld_mutable = Asttypes.Mutable && is_float l.pld_type then
            Lint.emit ctx ~pass:name ~loc:l.pld_loc
              (Printf.sprintf
                 "mutable float field %S in record %S, which also has \
                  non-float fields: every write boxes — move it into an \
                  all-float record (docs/PERFORMANCE.md) or annotate it \
                  with [@dlint.allow \"boxed-float: reason\"]"
                 l.pld_name.txt td.ptype_name.txt))
        labels
  | _ -> ()

let check ctx (f : Lint.file_unit) =
  let open Ast_iterator in
  let type_declaration it td =
    check_decl ctx td;
    default_iterator.type_declaration it td
  in
  let it = { default_iterator with type_declaration } in
  it.structure it f.Lint.f_structure

let pass =
  {
    Lint.p_name = name;
    p_doc = doc;
    p_applies = (fun scope -> Lint.under "lib" scope);
    p_check = check;
  }
