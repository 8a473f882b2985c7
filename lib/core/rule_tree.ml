open Remy_util

type rule = {
  lo : float array;  (* length 3, inclusive *)
  hi : float array;  (* exclusive *)
  mutable act : Action.t;
  mutable epoch : int;
  mutable leaf : bool;  (* reachable by lookup, i.e. a live rule *)
}

type node = Leaf of int | Split of { point : float array; children : node array }

type t = { mutable root : node; mutable rules : rule array; mutable live : int }

let whole_box () =
  (Array.make Memory.dims 0., Array.make Memory.dims Memory.max_value)

let live_ids t =
  let rec go acc = function
    | Leaf id -> id :: acc
    | Split { children; _ } -> Array.fold_left go acc children
  in
  List.rev (go [] t.root)

let create ?(initial_action = Action.default) () =
  let lo, hi = whole_box () in
  {
    root = Leaf 0;
    rules = [| { lo; hi; act = initial_action; epoch = 0; leaf = true } |];
    live = 1;
  }

(* Octree descent to the leaf holding [m].  Child bit [d] is set when
   coordinate [d] is at or above the split point, so a point on a split
   plane belongs to the high child, and a NaN coordinate (every
   comparison false) goes low.  The point travels as its flat float
   record, so no coordinate is boxed on the way down. *)
(* remy-lint: hot *)
let rec descend node (m : Memory.t) =
  match node with
  | Leaf id -> id
  | Split { point; children } ->
    let i =
      (if m.ack_ewma >= point.(0) then 1 else 0)
      lor (if m.send_ewma >= point.(1) then 2 else 0)
      lor if m.rtt_ratio >= point.(2) then 4 else 0
    in
    descend children.(i) m

(* remy-lint: hot *)
let lookup t m = descend t.root m

let lookup_uncompiled = lookup

let check_id t id =
  if id < 0 || id >= Array.length t.rules then
    invalid_arg (Printf.sprintf "Rule_tree: bad rule id %d" id)

let action ?override t id =
  check_id t id;
  match override with
  | Some (oid, act) when oid = id -> act
  | Some _ | None -> t.rules.(id).act

let set_action t id act =
  check_id t id;
  t.rules.(id).act <- act

let epoch t id =
  check_id t id;
  t.rules.(id).epoch

let set_epoch t id e =
  check_id t id;
  t.rules.(id).epoch <- e

let promote_all t e = List.iter (fun id -> t.rules.(id).epoch <- e) (live_ids t)
let capacity t = Array.length t.rules
let num_rules t = t.live

let box t id =
  check_id t id;
  let r = t.rules.(id) in
  Array.init Memory.dims (fun d -> (r.lo.(d), r.hi.(d)))

let subdivide t id ~at =
  check_id t id;
  if not t.rules.(id).leaf then
    invalid_arg (Printf.sprintf "Rule_tree.subdivide: %d not live" id);
  let parent = t.rules.(id) in
  (* Pull the split point strictly inside the box so no child is empty. *)
  let point =
    Array.init Memory.dims (fun d ->
        let v = Memory.get at d in
        if v > parent.lo.(d) && v < parent.hi.(d) then v
        else (parent.lo.(d) +. parent.hi.(d)) /. 2.)
  in
  let base = Array.length t.rules in
  let children =
    Array.init 8 (fun i ->
        let lo = Array.copy parent.lo and hi = Array.copy parent.hi in
        for d = 0 to Memory.dims - 1 do
          if i land (1 lsl d) <> 0 then lo.(d) <- point.(d) else hi.(d) <- point.(d)
        done;
        { lo; hi; act = parent.act; epoch = parent.epoch; leaf = true })
  in
  parent.leaf <- false;
  t.live <- t.live + 7;
  t.rules <- Array.append t.rules children;
  let child_nodes = Array.init 8 (fun i -> Leaf (base + i)) in
  let rec replace = function
    | Leaf l when l = id -> Split { point; children = child_nodes }
    | Leaf _ as leaf -> leaf
    | Split { point = p; children = cs } ->
      Split { point = p; children = Array.map replace cs }
  in
  t.root <- replace t.root;
  List.init 8 (fun i -> base + i)

let collapse_agreeing t =
  let collapsed = ref 0 in
  (* Fresh rules created by merges this pass; ids continue after
     t.rules.  Indexed by id so leaf lookups stay O(1) even when a
     bottom-up chain of merges references rules minted moments ago. *)
  let n_fixed = Array.length t.rules in
  let fresh : (int, rule) Hashtbl.t = Hashtbl.create 16 in
  let rule_of id = if id < n_fixed then t.rules.(id) else Hashtbl.find fresh id in
  (* Walk with explicit bounds so a merged leaf gets its box back. *)
  let rec go lo hi node =
    match node with
    | Leaf _ -> node
    | Split { point; children } ->
      let children' =
        Array.mapi
          (fun i child ->
            let clo = Array.copy lo and chi = Array.copy hi in
            for d = 0 to Memory.dims - 1 do
              if i land (1 lsl d) <> 0 then clo.(d) <- point.(d)
              else chi.(d) <- point.(d)
            done;
            go clo chi child)
          children
      in
      let leaf_actions =
        Array.fold_left
          (fun acc child ->
            match (acc, child) with
            | Some actions, Leaf id -> Some ((rule_of id).act :: actions)
            | _ -> None)
          (Some []) children'
      in
      (match leaf_actions with
      | Some (first :: rest) when List.for_all (Action.equal first) rest ->
        incr collapsed;
        let epoch =
          Array.fold_left
            (fun acc child ->
              match child with Leaf id -> min acc (rule_of id).epoch | _ -> acc)
            max_int children'
        in
        Array.iter
          (fun child ->
            match child with Leaf id -> (rule_of id).leaf <- false | _ -> ())
          children';
        let id = n_fixed + Hashtbl.length fresh in
        Hashtbl.add fresh id
          { lo = Array.copy lo; hi = Array.copy hi; act = first; epoch; leaf = true };
        t.live <- t.live - 7;
        Leaf id
      | Some _ | None -> Split { point; children = children' })
  in
  let lo, hi = whole_box () in
  let root' = go lo hi t.root in
  if Hashtbl.length fresh > 0 then begin
    let extra =
      Array.init (Hashtbl.length fresh) (fun i -> Hashtbl.find fresh (n_fixed + i))
    in
    t.rules <- Array.append t.rules extra;
    t.root <- root'
  end;
  !collapsed

(* --- serialization -------------------------------------------------- *)

let sexp_of_action (a : Action.t) =
  Sexp.list
    [
      Sexp.atom "action";
      Sexp.float a.Action.multiple;
      Sexp.float a.Action.increment;
      Sexp.float a.Action.intersend_ms;
    ]

let action_of_sexp s =
  match s with
  | Sexp.List [ Sexp.Atom "action"; m; b; r ] ->
    Result.bind (Sexp.to_float m) (fun multiple ->
        Result.bind (Sexp.to_float b) (fun increment ->
            Result.bind (Sexp.to_float r) (fun intersend_ms ->
                Ok { Action.multiple; increment; intersend_ms })))
  | _ -> Error "expected (action m b r)"

let to_sexp t =
  let rec node_sexp = function
    | Leaf id ->
      let r = t.rules.(id) in
      Sexp.list [ Sexp.atom "leaf"; sexp_of_action r.act ]
    | Split { point; children } ->
      Sexp.list
        (Sexp.atom "split"
        :: Sexp.list (Array.to_list (Array.map Sexp.float point))
        :: Array.to_list (Array.map node_sexp children))
  in
  Sexp.list [ Sexp.atom "remycc-rules"; Sexp.atom "v1"; node_sexp t.root ]

let of_sexp s =
  let ( let* ) = Result.bind in
  let rec node_of lo hi s (rules : rule list) =
    match s with
    | Sexp.List [ Sexp.Atom "leaf"; act ] ->
      let* act = action_of_sexp act in
      let id = List.length rules in
      Ok (Leaf id, rules @ [ { lo; hi; act; epoch = 0; leaf = true } ])
    | Sexp.List (Sexp.Atom "split" :: Sexp.List point :: children)
      when List.length children = 8 ->
      let* coords =
        List.fold_right
          (fun p acc ->
            let* acc = acc in
            let* v = Sexp.to_float p in
            Ok (v :: acc))
          point (Ok [])
      in
      if List.length coords <> Memory.dims then Error "split point arity"
      else begin
        let point = Array.of_list coords in
        let* children_rev, rules =
          List.fold_left
            (fun acc (i, child) ->
              let* children, rules = acc in
              let clo = Array.copy lo and chi = Array.copy hi in
              for d = 0 to Memory.dims - 1 do
                if i land (1 lsl d) <> 0 then clo.(d) <- point.(d)
                else chi.(d) <- point.(d)
              done;
              let* node, rules = node_of clo chi child rules in
              Ok (node :: children, rules))
            (Ok ([], rules))
            (List.mapi (fun i c -> (i, c)) children)
        in
        Ok (Split { point; children = Array.of_list (List.rev children_rev) }, rules)
      end
    | _ -> Error "expected (leaf ...) or (split point c0..c7)"
  in
  match s with
  | Sexp.List [ Sexp.Atom "remycc-rules"; Sexp.Atom "v1"; root ] ->
    let lo, hi = whole_box () in
    let* root, rules = node_of lo hi root [] in
    Ok { root; rules = Array.of_list rules; live = List.length rules }
  | _ -> Error "expected (remycc-rules v1 <tree>)"

(* Full-fidelity serialization for checkpoints: unlike [to_sexp], which
   keeps only the live structure and renumbers ids on load, this
   preserves the rules array verbatim — retired entries, array order,
   epochs and leaf flags — so that a restored tree is indistinguishable
   from the original to every id-, capacity- and epoch-sensitive
   consumer (tallies, incremental caches, [collapse_agreeing]'s fresh-id
   numbering). *)

let to_sexp_full t =
  let floats arr = Sexp.list (Array.to_list (Array.map Sexp.float arr)) in
  let rule_sexp (r : rule) =
    Sexp.list
      [
        floats r.lo;
        floats r.hi;
        sexp_of_action r.act;
        Sexp.int r.epoch;
        Sexp.int (if r.leaf then 1 else 0);
      ]
  in
  let rec node_sexp = function
    | Leaf id -> Sexp.int id
    | Split { point; children } ->
      Sexp.list
        (Sexp.atom "split" :: floats point
        :: Array.to_list (Array.map node_sexp children))
  in
  Sexp.list
    [
      Sexp.atom "remycc-state";
      Sexp.atom "v1";
      Sexp.list (Sexp.atom "rules" :: Array.to_list (Array.map rule_sexp t.rules));
      Sexp.list [ Sexp.atom "tree"; node_sexp t.root ];
    ]

let ( let* ) = Result.bind

let floats_of_sexp ~what s =
  let* items = Sexp.to_list s in
  if List.length items <> Memory.dims then
    Error (Printf.sprintf "%s: expected %d coordinates" what Memory.dims)
  else
    let* coords =
      List.fold_right
        (fun p acc ->
          let* acc = acc in
          let* v = Sexp.to_float p in
          Ok (v :: acc))
        items (Ok [])
    in
    Ok (Array.of_list coords)

let of_sexp_full s =
  match s with
  | Sexp.List
      [
        Sexp.Atom "remycc-state";
        Sexp.Atom "v1";
        Sexp.List (Sexp.Atom "rules" :: rule_sexps);
        Sexp.List [ Sexp.Atom "tree"; root_sexp ];
      ] ->
    let rule_of_sexp i s =
      match s with
      | Sexp.List [ lo; hi; act; epoch; leaf ] ->
        let what part = Printf.sprintf "rule %d %s" i part in
        let* lo = floats_of_sexp ~what:(what "lo") lo in
        let* hi = floats_of_sexp ~what:(what "hi") hi in
        let* act = action_of_sexp act in
        let* () =
          Result.map_error (fun e -> Printf.sprintf "rule %d: %s" i e)
            (Action.validate act)
        in
        let* epoch = Sexp.to_int epoch in
        let* leaf = Sexp.to_int leaf in
        if epoch < 0 then Error (Printf.sprintf "rule %d: negative epoch" i)
        else begin
          let box_ok = ref true in
          for d = 0 to Memory.dims - 1 do
            if
              not
                (Float.is_finite lo.(d) && Float.is_finite hi.(d)
                && lo.(d) < hi.(d))
            then box_ok := false
          done;
          if not !box_ok then
            Error (Printf.sprintf "rule %d: degenerate box (lo must be < hi)" i)
          else Ok { lo; hi; act; epoch; leaf = leaf <> 0 }
        end
      | _ -> Error (Printf.sprintf "rule %d: expected (lo hi action epoch leaf)" i)
    in
    let* rules_rev, n =
      List.fold_left
        (fun acc s ->
          let* rules, i = acc in
          let* r = rule_of_sexp i s in
          Ok (r :: rules, i + 1))
        (Ok ([], 0))
        rule_sexps
    in
    let rules = Array.of_list (List.rev rules_rev) in
    (* Rebuild the structure, checking that every leaf reference names a
       distinct in-range rule flagged live, and that the stored boxes
       match what the split points imply. *)
    let referenced = Array.make n false in
    let rec node_of lo hi s =
      match s with
      | Sexp.Atom _ ->
        let* id = Sexp.to_int s in
        if id < 0 || id >= n then
          Error (Printf.sprintf "leaf references rule %d outside 0..%d" id (n - 1))
        else if referenced.(id) then
          Error (Printf.sprintf "rule %d referenced by two leaves" id)
        else if not rules.(id).leaf then
          Error (Printf.sprintf "leaf references retired rule %d" id)
        else if rules.(id).lo <> lo || rules.(id).hi <> hi then
          Error
            (Printf.sprintf "rule %d: stored box disagrees with tree structure" id)
        else begin
          referenced.(id) <- true;
          Ok (Leaf id)
        end
      | Sexp.List (Sexp.Atom "split" :: point :: children)
        when List.length children = 8 ->
        let* point = floats_of_sexp ~what:"split point" point in
        let inside = ref true in
        for d = 0 to Memory.dims - 1 do
          if not (point.(d) > lo.(d) && point.(d) < hi.(d)) then inside := false
        done;
        if not !inside then Error "split point falls outside its box"
        else
          let* children_rev =
            List.fold_left
              (fun acc (i, child) ->
                let* children = acc in
                let clo = Array.copy lo and chi = Array.copy hi in
                for d = 0 to Memory.dims - 1 do
                  if i land (1 lsl d) <> 0 then clo.(d) <- point.(d)
                  else chi.(d) <- point.(d)
                done;
                let* node = node_of clo chi child in
                Ok (node :: children))
              (Ok [])
              (List.mapi (fun i c -> (i, c)) children)
          in
          Ok (Split { point; children = Array.of_list (List.rev children_rev) })
      | _ -> Error "expected a rule id or (split point c0..c7)"
    in
    let lo, hi = whole_box () in
    let* root = node_of lo hi root_sexp in
    let live = ref 0 in
    let orphan = ref None in
    Array.iteri
      (fun id r ->
        if r.leaf then begin
          incr live;
          if (not referenced.(id)) && !orphan = None then orphan := Some id
        end)
      rules;
    (match !orphan with
    | Some id ->
      Error (Printf.sprintf "rule %d is flagged live but unreachable from the tree" id)
    | None -> Ok { root; rules; live = !live })
  | _ -> Error "expected (remycc-state v1 (rules ...) (tree ...))"

(* Whole-table geometry: the live rules' boxes must tile the memory
   domain exactly — no gap, no double cover.  [Boxpart.check] decides
   this without sampling; errors name the offending rule pair (or the
   single empty/escaping rule) plus a witness memory point. *)
let check_partition t =
  let ids = Array.of_list (live_ids t) in
  let boxes =
    Array.map
      (fun id -> { Boxpart.lo = t.rules.(id).lo; hi = t.rules.(id).hi })
      ids
  in
  let lo, hi = whole_box () in
  match Boxpart.check ~lo ~hi boxes with
  | Ok () -> Ok ()
  | Error flaw ->
    let point p =
      Format.asprintf "(%a)"
        (Format.pp_print_array
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
           (fun fmt v -> Format.fprintf fmt "%g" v))
        p
    in
    Error
      (match flaw with
      | Boxpart.Overlap { a; b; point = p } ->
        Printf.sprintf "rules %d and %d overlap at %s — not a partition"
          ids.(a) ids.(b) (point p)
      | Boxpart.Gap { point = p } ->
        Printf.sprintf "memory domain not covered: no rule owns %s" (point p)
      | Boxpart.Degenerate { box; dim } ->
        Printf.sprintf "rule %d: empty box (lo >= hi in dimension %d)" ids.(box)
          dim
      | Boxpart.Escape { box; dim } ->
        Printf.sprintf "rule %d escapes the memory domain in dimension %d"
          ids.(box) dim)

let validate t =
  let ( let* ) = Result.bind in
  let rec go lo hi node =
    match node with
    | Leaf id ->
      if id < 0 || id >= Array.length t.rules then
        Error (Printf.sprintf "rule %d: id outside the rules array" id)
      else
        Result.map_error
          (fun e ->
            Format.asprintf "rule %d (%a): %s" id Action.pp t.rules.(id).act e)
          (Action.validate t.rules.(id).act)
    | Split { point; children } ->
      let* () =
        if Array.length children <> 8 then Error "split without 8 children"
        else Ok ()
      in
      let inside = ref true in
      for d = 0 to Memory.dims - 1 do
        if
          not (Float.is_finite point.(d) && point.(d) > lo.(d) && point.(d) < hi.(d))
        then inside := false
      done;
      let* () =
        if !inside then Ok ()
        else
          Error
            (Format.asprintf
               "split point (%g %g %g) escapes its box — memory domain not covered"
               point.(0) point.(1) point.(2))
      in
      let rec check_children i acc =
        if i >= 8 then acc
        else
          match acc with
          | Error _ -> acc
          | Ok () ->
            let clo = Array.copy lo and chi = Array.copy hi in
            for d = 0 to Memory.dims - 1 do
              if i land (1 lsl d) <> 0 then clo.(d) <- point.(d)
              else chi.(d) <- point.(d)
            done;
            check_children (i + 1) (go clo chi children.(i))
      in
      check_children 0 (Ok ())
  in
  let lo, hi = whole_box () in
  (* Geometry first (it names the offending rule pair and a witness
     point), but only once every leaf id is in range. *)
  let* () =
    match
      List.find_opt (fun id -> id < 0 || id >= Array.length t.rules) (live_ids t)
    with
    | Some id -> Error (Printf.sprintf "rule %d: id outside the rules array" id)
    | None -> Ok ()
  in
  let* () = check_partition t in
  go lo hi t.root

let save path t = Sexp.save path (to_sexp t)

let load path =
  match Sexp.load path with
  | Error _ as e -> e
  | Ok s -> (
    match of_sexp s with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok _ as ok -> ok)

let load_validated path =
  match load path with
  | Error _ as e -> e
  | Ok t -> (
    match validate t with
    | Ok () -> Ok t
    | Error e -> Error (Printf.sprintf "%s: invalid rule table: %s" path e))

let pp fmt t =
  Format.fprintf fmt "rule table: %d rules@." (num_rules t);
  List.iter
    (fun id ->
      let r = t.rules.(id) in
      Format.fprintf fmt "  [%3d] ack[%g,%g) send[%g,%g) ratio[%g,%g) -> %a@." id
        r.lo.(0) r.hi.(0) r.lo.(1) r.hi.(1) r.lo.(2) r.hi.(2) Action.pp r.act)
    (live_ids t)
