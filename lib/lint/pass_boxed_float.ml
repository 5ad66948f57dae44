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

   Also flagged: [Array.sort], [Array.stable_sort] or [Array.fast_sort]
   applied to [Float.compare].  The array sorts are polymorphic, so on a
   flat float array they box both operands of every comparison (about
   100 words per element over a large sort); [Stats.sort_prefix] sorts
   a float array in place without allocating.

   A deliberate exception — a cold gauge, or a field that shares a box
   made elsewhere instead of allocating one — carries
   [@dlint.allow "boxed-float: <why>"] on the field or the call, or
   [@@dlint.allow "boxed-float: <why>"] on the type. *)

let name = "boxed-float"

let doc =
  "mutable float fields in records that also hold non-float fields \
   (every write boxes; use an all-float record) and polymorphic array \
   sorts by Float.compare (every comparison boxes)"

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

let array_sorts =
  [ "Array.sort"; "Array.stable_sort"; "Array.fast_sort"; "Stdlib.Array.sort";
    "Stdlib.Array.stable_sort"; "Stdlib.Array.fast_sort" ]

let float_compares = [ "Float.compare"; "Stdlib.Float.compare" ]

let ident_of (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Lint.ident_name txt)
  | _ -> None

let check_sort ctx (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply (fn, (Asttypes.Nolabel, cmp) :: _) -> (
      match (ident_of fn, ident_of cmp) with
      | Some sort, Some c
        when List.mem sort array_sorts && List.mem c float_compares ->
          Lint.emit ctx ~pass:name ~loc:fn.pexp_loc
            (Printf.sprintf
               "%s %s boxes both operands of every comparison — sort a \
                float array with Drust_util.Stats.sort_prefix \
                (docs/PERFORMANCE.md) or annotate the call with \
                [@dlint.allow \"boxed-float: reason\"]"
               sort c)
      | _ -> ())
  | _ -> ()

let check ctx (f : Lint.file_unit) =
  let open Ast_iterator in
  let type_declaration it td =
    check_decl ctx td;
    default_iterator.type_declaration it td
  in
  let expr it e =
    check_sort ctx e;
    default_iterator.expr it e
  in
  let it = { default_iterator with type_declaration; expr } in
  it.structure it f.Lint.f_structure

let pass =
  {
    Lint.p_name = name;
    p_doc = doc;
    p_applies = (fun scope -> Lint.under "lib" scope);
    p_check = check;
  }
