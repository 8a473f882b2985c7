open Typedtree

let name = "hot-alloc"

(* Stdlib entry points that unconditionally allocate their result.
   Intra-unit calls are not classified (see the .mli); this table is
   the "you certainly didn't mean that in a hot loop" set. *)
let allocating_calls =
  [
    [ "ref" ]; [ "^" ]; [ "@" ]; [ "^^" ];
    [ "Array"; "make" ]; [ "Array"; "init" ]; [ "Array"; "copy" ];
    [ "Array"; "append" ]; [ "Array"; "concat" ]; [ "Array"; "sub" ];
    [ "Array"; "of_list" ]; [ "Array"; "to_list" ]; [ "Array"; "map" ];
    [ "Array"; "mapi" ]; [ "Array"; "to_seq" ];
    [ "List"; "init" ]; [ "List"; "map" ]; [ "List"; "mapi" ];
    [ "List"; "append" ]; [ "List"; "concat" ]; [ "List"; "concat_map" ];
    [ "List"; "rev" ]; [ "List"; "filter" ]; [ "List"; "filter_map" ];
    [ "List"; "sort" ]; [ "List"; "merge" ]; [ "List"; "split" ];
    [ "List"; "combine" ]; [ "List"; "of_seq" ]; [ "List"; "to_seq" ];
    [ "String"; "make" ]; [ "String"; "init" ]; [ "String"; "sub" ];
    [ "String"; "concat" ]; [ "String"; "cat" ]; [ "String"; "split_on_char" ];
    [ "Bytes"; "create" ]; [ "Bytes"; "make" ]; [ "Bytes"; "copy" ];
    [ "Bytes"; "sub" ]; [ "Bytes"; "of_string" ]; [ "Bytes"; "to_string" ];
    [ "Printf"; "sprintf" ]; [ "Printf"; "printf" ]; [ "Printf"; "eprintf" ];
    [ "Printf"; "fprintf" ]; [ "Format"; "sprintf" ]; [ "Format"; "asprintf" ];
    [ "string_of_int" ]; [ "string_of_float" ]; [ "string_of_bool" ];
    [ "Int"; "to_string" ]; [ "Float"; "to_string" ];
    [ "Hashtbl"; "create" ]; [ "Buffer"; "create" ]; [ "Buffer"; "contents" ];
    [ "Queue"; "create" ]; [ "Stack"; "create" ];
    [ "Option"; "map" ]; [ "Option"; "some" ]; [ "Option"; "bind" ];
  ]

(* Escape paths: what these consume never returns, so allocation in
   their arguments is cold by construction. *)
let raising = [ [ "raise" ]; [ "raise_notrace" ]; [ "failwith" ]; [ "invalid_arg" ] ]

let suffix_mem norm table =
  norm <> [] && List.exists (fun s -> Tt_util.has_suffix norm ~suffix:s) table

let check_hot_body (ctx : Pass.ctx) ~file ~fn_name body =
  let flag e what =
    Pass.emit ctx ~file ~line:(Tt_util.line_of e) ~pass:name ~rule:name
      ~witness:(Printf.sprintf "hot function `%s`" fn_name)
      what
  in
  let super = Tast_iterator.default_iterator in
  (* The leading parameter spine of the hot function itself is not an
     allocation (entering a fully-applied curried function builds no
     closure); any function literal reached through a non-spine child
     is.  [Texp_let] keeps the spine alive through its body (and kills
     it in the bound expressions): optional-argument defaults desugar
     to a let-wrapped match between parameters, and a definition-time
     `let helper = ... in fun x -> ...` prefix runs once, not per
     call. *)
  let in_spine = ref true in
  let expr it (e : expression) =
    match e.exp_desc with
    | Texp_function _ ->
      if not !in_spine then flag e "closure allocation";
      let saved = !in_spine in
      in_spine := true;
      super.expr it e;
      in_spine := saved
    | Texp_let (_, vbs, body) ->
      let saved = !in_spine in
      in_spine := false;
      List.iter (fun vb -> it.Tast_iterator.value_binding it vb) vbs;
      in_spine := saved;
      it.Tast_iterator.expr it body
    | _ ->
      let saved = !in_spine in
      in_spine := false;
      (match e.exp_desc with
      | Texp_tuple _ -> flag e "tuple allocation"
      | Texp_construct (_, cd, args) when args <> [] ->
        flag e
          (Printf.sprintf "allocating constructor %s" cd.Types.cstr_name)
      | Texp_variant (_, Some _) -> flag e "allocating polymorphic variant"
      | Texp_record _ -> flag e "record allocation"
      | Texp_array (_ :: _) -> flag e "array literal allocation"
      | Texp_lazy _ -> flag e "lazy-value allocation"
      | Texp_letop _ -> flag e "binding-operator allocation"
      | Texp_object _ | Texp_pack _ -> flag e "object/module allocation"
      | Texp_apply (f, _) when suffix_mem (Tt_util.head_norm f) raising -> ()
      | Texp_apply (f, _) when suffix_mem (Tt_util.head_norm f) allocating_calls
        ->
        flag e
          (Printf.sprintf "allocating call %s"
             (String.concat "." (Tt_util.head_norm f)))
      | Texp_apply (_, args)
        when List.exists (fun (_, a) -> Option.is_none a) args ->
        (* An omitted labelled argument proves the application partial.
           Positional partial application is indistinguishable from a
           call that returns a function (e.g. Hashtbl.find handing back
           a stored callback) by the result type alone, so it is not
           flagged — see the .mli. *)
        flag e "partial application (allocates a closure)"
      | _ -> ());
      (match e.exp_desc with
      | Texp_assert _ -> () (* assertion failure path: cold *)
      | Texp_apply (f, _) when suffix_mem (Tt_util.head_norm f) raising -> ()
      | _ -> super.expr it e);
      in_spine := saved
  in
  let it = { super with expr } in
  in_spine := true;
  it.expr it body

let run (ctx : Pass.ctx) =
  List.iter
    (fun (u : Cmt_unit.t) ->
      let src = ctx.source u.source in
      if Source_file.exists src then begin
        let super = Tast_iterator.default_iterator in
        let value_binding it vb =
          (match pat_bound_idents vb.vb_pat with
          | [ id ]
            when Source_file.hot src
                   ~line:vb.vb_loc.Location.loc_start.Lexing.pos_lnum ->
            check_hot_body ctx ~file:u.source ~fn_name:(Ident.name id) vb.vb_expr
          | _ -> ());
          super.value_binding it vb
        in
        let it = { super with value_binding } in
        it.structure it u.structure
      end)
    ctx.units

let pass : Pass.t =
  {
    name;
    description = "hot-annotated functions must not allocate";
    rules = [ name ];
    needs_cmt = true;
    run;
  }
