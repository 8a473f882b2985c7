open Typedtree

let name = "domain-safety"
let rules = [ name; "global-mutable" ]

(* ------------------------------------------------------------------ *)
(* Suspect operations: (path suffix, index of the mutated positional
   argument, description).  Reads are suspect too — an unsynchronized
   read racing a write is undefined behaviour under the OCaml memory
   model — except array reads, which are idiomatically used for
   disjoint-index parallelism and would drown the signal. *)

let op_table =
  [
    ([ ":=" ], 0, "ref write");
    ([ "!" ], 0, "ref read");
    ([ "incr" ], 0, "ref write");
    ([ "decr" ], 0, "ref write");
    ([ "Array"; "set" ], 0, "array write");
    ([ "Array"; "unsafe_set" ], 0, "array write");
    ([ "Array"; "fill" ], 0, "array write");
    ([ "Array"; "blit" ], 2, "array write");
    ([ "Hashtbl"; "add" ], 0, "hashtable write");
    ([ "Hashtbl"; "replace" ], 0, "hashtable write");
    ([ "Hashtbl"; "remove" ], 0, "hashtable write");
    ([ "Hashtbl"; "reset" ], 0, "hashtable write");
    ([ "Hashtbl"; "clear" ], 0, "hashtable write");
    ([ "Hashtbl"; "filter_map_inplace" ], 1, "hashtable write");
    ([ "Hashtbl"; "find" ], 0, "hashtable read");
    ([ "Hashtbl"; "find_opt" ], 0, "hashtable read");
    ([ "Hashtbl"; "find_all" ], 0, "hashtable read");
    ([ "Hashtbl"; "mem" ], 0, "hashtable read");
    ([ "Hashtbl"; "length" ], 0, "hashtable read");
    ([ "Hashtbl"; "iter" ], 1, "hashtable read");
    ([ "Hashtbl"; "fold" ], 1, "hashtable read");
    ([ "Buffer"; "add_char" ], 0, "buffer write");
    ([ "Buffer"; "add_string" ], 0, "buffer write");
    ([ "Buffer"; "add_bytes" ], 0, "buffer write");
    ([ "Buffer"; "clear" ], 0, "buffer write");
    ([ "Buffer"; "reset" ], 0, "buffer write");
    ([ "Buffer"; "contents" ], 0, "buffer read");
    ([ "Buffer"; "length" ], 0, "buffer read");
    ([ "Queue"; "push" ], 1, "queue write");
    ([ "Queue"; "add" ], 1, "queue write");
    ([ "Queue"; "pop" ], 0, "queue write");
    ([ "Queue"; "take" ], 0, "queue write");
    ([ "Queue"; "clear" ], 0, "queue write");
    ([ "Queue"; "peek" ], 0, "queue read");
    ([ "Queue"; "length" ], 0, "queue read");
    ([ "Stack"; "push" ], 1, "stack write");
    ([ "Stack"; "pop" ], 0, "stack write");
    ([ "Stack"; "top" ], 0, "stack read");
    ([ "Stack"; "clear" ], 0, "stack write");
  ]

(* Crossing APIs: calls whose closure argument runs on another domain. *)
type arg_spec =
  | Nth of int  (** n-th positional argument *)
  | Labelled of string  (** a (possibly optional) labelled argument *)
  | Fun_args  (** every positional argument of arrow type *)
  | Record_run  (** the [run] field of a job-record literal (Pool.submit) *)

let crossing_table =
  [
    ([ "Domain"; "spawn" ], Nth 0, "Domain.spawn");
    ([ "Thread"; "create" ], Nth 0, "Thread.create");
    ([ "Pool"; "map" ], Fun_args, "Par.Pool.map");
    ([ "Pool"; "run" ], Fun_args, "Par.Pool.run");
    ([ "Pool"; "submit" ], Record_run, "Par.Pool.submit");
    (* Unqualified: submit is called from inside its own defining module,
       where the path has no Pool prefix.  Harmless elsewhere — the spec
       only fires on record literals carrying a [run] field. *)
    ([ "submit" ], Record_run, "Pool.submit");
    ([ "Pool"; "create" ], Labelled "on_retry", "Par.Pool.create ~on_retry");
    ([ "DLS"; "new_key" ], Nth 0, "Domain.DLS.new_key");
  ]

let suffix_find norm table =
  if norm = [] then None
  else
    List.find_opt (fun (s, _, _) -> Tt_util.has_suffix norm ~suffix:s) table

(* Synchronized-by-construction modules: any operation through them is
   the fix, not the hazard (and e.g. Atomic.incr must not suffix-match
   the plain [incr] entry).  Guards the op table only — crossing entries
   like DLS.new_key must still match. *)
let safe_modules = [ "Atomic"; "Mutex"; "Condition"; "Semaphore"; "DLS" ]

let op_find norm =
  if List.exists (fun c -> List.mem c safe_modules) norm then None
  else suffix_find norm op_table

let is_call e suffix =
  match e.exp_desc with
  | Texp_apply (f, _) -> Tt_util.has_suffix (Tt_util.head_norm f) ~suffix
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-binding analysis.  For every let-bound value we record the
   suspect operations whose target is free in that binding, plus the
   in-unit bindings it references (callee edges for the fixpoint). *)

type op = { line : int; what : string; root : Tt_util.root }
type info = { ops : op list; callees : (string * string) list }

type binding = { display : string; expr : expression }

let analyze (bindings : (string, binding) Hashtbl.t) expr =
  let bound = Tt_util.bound_idents expr in
  let ops = ref [] in
  let callees = ref [] in
  let protected = ref false in
  let record e what root =
    if not !protected then
      match root with
      | Tt_util.Anon -> ()
      | Tt_util.Local id when Hashtbl.mem bound (Ident.unique_name id) -> ()
      | root -> ops := { line = Tt_util.line_of e; what; root } :: !ops
  in
  let super = Tast_iterator.default_iterator in
  let expr_it it (e : expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _)
      when Hashtbl.mem bindings (Ident.unique_name id) ->
      if not !protected then
        callees := (Ident.unique_name id, Ident.name id) :: !callees
    | Texp_sequence (e1, e2) when is_call e1 [ "Mutex"; "lock" ] ->
      (* `Mutex.lock m; <rest>`: the rest of the sequence runs under the
         lock (the matching unlock is the author's problem, not a race). *)
      it.Tast_iterator.expr it e1;
      let saved = !protected in
      protected := true;
      it.Tast_iterator.expr it e2;
      protected := saved
    | Texp_apply (f, _) when Tt_util.has_suffix (Tt_util.head_norm f) ~suffix:[ "Mutex"; "protect" ] ->
      let saved = !protected in
      protected := true;
      super.expr it e;
      protected := saved
    | Texp_setfield (obj, _, ld, _) ->
      record e
        (Printf.sprintf "write to mutable field `%s`" ld.Types.lbl_name)
        (Tt_util.root_of obj);
      super.expr it e
    | Texp_field (obj, _, ld) -> (
      (match ld.Types.lbl_mut with
      | Asttypes.Mutable ->
        record e
          (Printf.sprintf "read of mutable field `%s`" ld.Types.lbl_name)
          (Tt_util.root_of obj)
      | Asttypes.Immutable -> ());
      super.expr it e)
    | Texp_apply (f, args) -> (
      (match op_find (Tt_util.head_norm f) with
      | Some (_, idx, what) -> (
        match Tt_util.nth_arg args idx with
        | Some target -> record e what (Tt_util.root_of target)
        | None -> ())
      | None -> ());
      super.expr it e)
    | _ -> super.expr it e
  in
  let it = { super with expr = expr_it } in
  it.expr it expr;
  { ops = List.rev !ops; callees = List.rev !callees }

let info_of bindings memo uname =
  match Hashtbl.find_opt memo uname with
  | Some i -> i
  | None ->
    (* Pre-seed to cut recursion cycles through the callee graph. *)
    Hashtbl.replace memo uname { ops = []; callees = [] };
    let i = analyze bindings (Hashtbl.find bindings uname).expr in
    Hashtbl.replace memo uname i;
    i

(* Transitive suspect operations of a crossing closure: its own, plus
   its callees', minus any whose target the closure itself binds (state
   created inside the closure is domain-private). *)
let transitive bindings memo ~closure_bound start =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec go via (info : info) =
    List.iter
      (fun (o : op) ->
        let shared =
          match o.root with
          | Tt_util.Local id -> not (Hashtbl.mem closure_bound (Ident.unique_name id))
          | Tt_util.Global _ -> true
          | Tt_util.Anon -> false
        in
        if shared then out := (o, List.rev via) :: !out)
      info.ops;
    List.iter
      (fun (uname, display) ->
        if not (Hashtbl.mem seen uname) then begin
          Hashtbl.add seen uname ();
          go (display :: via) (info_of bindings memo uname)
        end)
      info.callees
  in
  go [] start;
  !out

(* Resolve a crossing argument to the closure(s) it stands for: function
   literals directly, idents and partial applications through the unit's
   binding table, [Some f] through the option, job records through their
   [run] field. *)
let rec targets_of bindings (e : expression) =
  match e.exp_desc with
  | Texp_function _ -> [ `Closure e ]
  | Texp_ident (Path.Pident id, _, _)
    when Hashtbl.mem bindings (Ident.unique_name id) ->
    [ `Binding (Ident.unique_name id) ]
  | Texp_apply (f, _) -> targets_of bindings f
  | Texp_construct (_, _, [ inner ]) -> targets_of bindings inner
  | Texp_record { fields; _ } ->
    Array.to_list fields
    |> List.concat_map (fun ((ld : Types.label_description), def) ->
           match (ld.Types.lbl_name, def) with
           | "run", Overridden (_, e) -> targets_of bindings e
           | _ -> [])
  | _ -> []

let crossing_args spec args =
  match spec with
  | Nth n -> ( match Tt_util.nth_arg args n with Some e -> [ e ] | None -> [])
  | Labelled want ->
    List.filter_map
      (fun (lbl, a) ->
        match (lbl, a) with
        | (Asttypes.Labelled l | Asttypes.Optional l), Some e
          when String.equal l want ->
          Some e
        | _ -> None)
      args
  | Fun_args ->
    List.filter_map
      (fun (lbl, a) ->
        match (lbl, a) with
        | Asttypes.Nolabel, Some (e : expression) when Tt_util.is_arrow e.exp_type -> Some e
        | _ -> None)
      args
  | Record_run ->
    List.filter_map
      (fun (_, a) ->
        match a with
        | Some ({ exp_desc = Texp_record _; _ } as e) -> Some e
        | _ -> None)
      args

(* ------------------------------------------------------------------ *)
(* The [global-mutable] structural rule: module-level mutable state. *)

let exempt_type_suffixes =
  [ [ "Atomic"; "t" ]; [ "Mutex"; "t" ]; [ "Condition"; "t" ]; [ "DLS"; "key" ] ]

let mutable_ctor_table =
  [
    ([ "ref" ], "ref cell");
    ([ "Hashtbl"; "create" ], "hashtable");
    ([ "Buffer"; "create" ], "buffer");
    ([ "Queue"; "create" ], "queue");
    ([ "Stack"; "create" ], "stack");
  ]

let global_mutable_kind (e : expression) =
  let ty = Tt_util.type_suffix e.exp_type in
  if List.exists (fun s -> Tt_util.has_suffix ty ~suffix:s) exempt_type_suffixes
  then None
  else
    match e.exp_desc with
    | Texp_apply (f, _) -> (
      let norm = Tt_util.head_norm f in
      match
        List.find_opt (fun (s, _) -> Tt_util.has_suffix norm ~suffix:s)
          mutable_ctor_table
      with
      | Some (_, kind) -> Some kind
      | None -> None)
    | Texp_record { fields; _ }
      when Array.exists
             (fun ((ld : Types.label_description), _) ->
               match ld.Types.lbl_mut with
               | Asttypes.Mutable -> true
               | Asttypes.Immutable -> false)
             fields ->
      Some "record"
    | _ -> None

let rec check_globals ctx ~file (str : structure) =
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match (pat_bound_idents vb.vb_pat, global_mutable_kind vb.vb_expr) with
            | [ id ], Some kind ->
              Pass.emit ctx ~file
                ~line:vb.vb_loc.Location.loc_start.Lexing.pos_lnum
                ~pass:name ~rule:"global-mutable"
                ~witness:(Printf.sprintf "module-level binding `%s`" (Ident.name id))
                (Printf.sprintf
                   "module-level mutable %s `%s`: every domain can reach it; \
                    use Atomic/DLS, or guard with a Mutex and annotate allow \
                    with a justification"
                   kind (Ident.name id))
            | _ -> ())
          vbs
      | Tstr_module mb -> check_module ctx ~file mb.mb_expr
      | Tstr_recmodule mbs -> List.iter (fun mb -> check_module ctx ~file mb.mb_expr) mbs
      | _ -> ())
    str.str_items

and check_module ctx ~file (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> check_globals ctx ~file str
  | Tmod_constraint (me, _, _, _) -> check_module ctx ~file me
  | _ -> ()

(* ------------------------------------------------------------------ *)

let run_unit (ctx : Pass.ctx) (u : Cmt_unit.t) =
  let bindings : (string, binding) Hashtbl.t = Hashtbl.create 64 in
  let memo : (string, info) Hashtbl.t = Hashtbl.create 64 in
  (* Collect every let binding in the unit (top-level and nested),
     keyed by unique stamp — the callee graph for the fixpoint. *)
  let super = Tast_iterator.default_iterator in
  let collect_vb it vb =
    (match pat_bound_idents vb.vb_pat with
    | [ id ] ->
      Hashtbl.replace bindings (Ident.unique_name id)
        { display = Ident.name id; expr = vb.vb_expr }
    | _ -> ());
    super.value_binding it vb
  in
  let collector = { super with value_binding = collect_vb } in
  collector.structure collector u.structure;
  (* Find crossing sites and check every closure that crosses. *)
  let emitted = Hashtbl.create 16 in
  let check_crossing ~api ~site_line target =
    let closure_expr, start =
      match target with
      | `Closure e -> (e, analyze bindings e)
      | `Binding uname ->
        let b = Hashtbl.find bindings uname in
        (b.expr, info_of bindings memo uname)
    in
    let closure_bound = Tt_util.bound_idents closure_expr in
    transitive bindings memo ~closure_bound start
    |> List.iter (fun ((o : op), via) ->
           let key = (o.line, o.what, Tt_util.root_name o.root) in
           if not (Hashtbl.mem emitted key) then begin
             Hashtbl.add emitted key ();
             let chain =
               match via with
               | [] -> ""
               | vs -> Printf.sprintf " via `%s`" (String.concat " -> " vs)
             in
             Pass.emit ctx ~file:u.source ~line:o.line ~pass:name ~rule:name
               ~witness:
                 (Printf.sprintf "crosses domains at %s:%d through %s%s"
                    u.source site_line api chain)
               (Printf.sprintf
                  "%s on `%s` in a closure that crosses domains, without \
                   Atomic/Mutex/DLS protection"
                  o.what (Tt_util.root_name o.root))
           end)
  in
  let site_expr it (e : expression) =
    (match e.exp_desc with
    | Texp_apply (f, args) -> (
      match suffix_find (Tt_util.head_norm f) crossing_table with
      | Some (_, spec, api) ->
        let site_line = Tt_util.line_of e in
        crossing_args spec args
        |> List.concat_map (targets_of bindings)
        |> List.iter (check_crossing ~api ~site_line)
      | None -> ())
    | _ -> ());
    super.expr it e
  in
  let finder = { super with expr = site_expr } in
  finder.structure finder u.structure;
  check_globals ctx ~file:u.source u.structure

let run (ctx : Pass.ctx) = List.iter (run_unit ctx) ctx.units

let pass : Pass.t =
  {
    name;
    description =
      "data races: unprotected mutable state crossing domain boundaries, and \
       module-level mutable state";
    rules;
    needs_cmt = true;
    run;
  }
