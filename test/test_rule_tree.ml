open Remy
open Remy_util

let mem a s r = Memory.make ~ack_ewma:a ~send_ewma:s ~rtt_ratio:r

let test_singleton () =
  let t = Rule_tree.create () in
  Alcotest.(check int) "one rule" 1 (Rule_tree.num_rules t);
  Alcotest.(check int) "lookup anywhere" 0 (Rule_tree.lookup t (mem 0. 0. 0.));
  Alcotest.(check int) "lookup far corner" 0 (Rule_tree.lookup t (mem 16000. 16000. 16000.));
  Alcotest.(check bool) "default action" true
    (Action.equal (Rule_tree.action t 0) Action.default)

let test_subdivide_partitions () =
  let t = Rule_tree.create () in
  let children = Rule_tree.subdivide t 0 ~at:(mem 100. 200. 2.) in
  Alcotest.(check int) "eight children" 8 (List.length children);
  Alcotest.(check int) "eight live rules" 8 (Rule_tree.num_rules t);
  (* Points on each side of every plane land in distinct octants. *)
  let id_low = Rule_tree.lookup t (mem 50. 100. 1.) in
  let id_high = Rule_tree.lookup t (mem 200. 300. 3.) in
  Alcotest.(check bool) "octants differ" true (id_low <> id_high);
  (* Children inherit the parent action. *)
  List.iter
    (fun id ->
      Alcotest.(check bool) "inherits action" true
        (Action.equal (Rule_tree.action t id) Action.default))
    children

let test_subdivide_boundary_point_is_high_side () =
  let t = Rule_tree.create () in
  ignore (Rule_tree.subdivide t 0 ~at:(mem 100. 100. 1.));
  let at_split = Rule_tree.lookup t (mem 100. 100. 1.) in
  let above = Rule_tree.lookup t (mem 101. 101. 1.01) in
  Alcotest.(check int) "split point belongs to the high child" above at_split

let test_subdivide_degenerate_point_uses_midpoint () =
  let t = Rule_tree.create () in
  (* A split at the very corner would create empty children; the tree
     must fall back to the box midpoint. *)
  ignore (Rule_tree.subdivide t 0 ~at:(mem 0. 0. 0.));
  let low = Rule_tree.lookup t (mem 1. 1. 1.) in
  let high = Rule_tree.lookup t (mem 10000. 10000. 10000.) in
  Alcotest.(check bool) "still partitions" true (low <> high)

let test_dead_parent_not_live () =
  let t = Rule_tree.create () in
  ignore (Rule_tree.subdivide t 0 ~at:(mem 100. 100. 2.));
  Alcotest.(check bool) "parent retired" false (List.mem 0 (Rule_tree.live_ids t));
  Alcotest.check_raises "resubdividing parent rejected"
    (Invalid_argument "Rule_tree.subdivide: 0 not live") (fun () ->
      ignore (Rule_tree.subdivide t 0 ~at:(mem 50. 50. 1.)))

let test_nested_subdivision () =
  let t = Rule_tree.create () in
  ignore (Rule_tree.subdivide t 0 ~at:(mem 1000. 1000. 4.));
  let id = Rule_tree.lookup t (mem 10. 10. 1.) in
  ignore (Rule_tree.subdivide t id ~at:(mem 10. 10. 1.5));
  Alcotest.(check int) "15 live rules" 15 (Rule_tree.num_rules t);
  Alcotest.(check int) "capacity grows" 17 (Rule_tree.capacity t)

let test_epochs () =
  let t = Rule_tree.create () in
  ignore (Rule_tree.subdivide t 0 ~at:(mem 100. 100. 2.));
  Rule_tree.promote_all t 3;
  List.iter
    (fun id -> Alcotest.(check int) "promoted" 3 (Rule_tree.epoch t id))
    (Rule_tree.live_ids t);
  Rule_tree.set_epoch t (List.hd (Rule_tree.live_ids t)) 4;
  Alcotest.(check int) "individual epoch" 4
    (Rule_tree.epoch t (List.hd (Rule_tree.live_ids t)))

let test_override () =
  let t = Rule_tree.create () in
  let custom = { Action.multiple = 0.5; increment = 2.; intersend_ms = 5. } in
  Alcotest.(check bool) "override substitutes" true
    (Action.equal custom (Rule_tree.action ~override:(0, custom) t 0));
  Alcotest.(check bool) "tree unchanged" true
    (Action.equal Action.default (Rule_tree.action t 0))

let test_box () =
  let t = Rule_tree.create () in
  let b = Rule_tree.box t 0 in
  Alcotest.(check (float 0.)) "lo" 0. (fst b.(0));
  Alcotest.(check (float 0.)) "hi" Memory.max_value (snd b.(2))

let random_tree rng depth =
  let t = Rule_tree.create () in
  let rec go d =
    if d > 0 then begin
      let ids = Rule_tree.live_ids t in
      let id = List.nth ids (Prng.int rng (List.length ids)) in
      let b = Rule_tree.box t id in
      let point =
        Memory.make
          ~ack_ewma:(Prng.uniform rng (fst b.(0)) (snd b.(0)))
          ~send_ewma:(Prng.uniform rng (fst b.(1)) (snd b.(1)))
          ~rtt_ratio:(Prng.uniform rng (fst b.(2)) (snd b.(2)))
      in
      let children = Rule_tree.subdivide t id ~at:point in
      List.iter
        (fun cid ->
          Rule_tree.set_action t cid
            (Action.clamp
               {
                 Action.multiple = Prng.float rng 2.;
                 increment = Prng.uniform rng (-50.) 50.;
                 intersend_ms = Prng.uniform rng 0.01 10.;
               }))
        children;
      go (d - 1)
    end
  in
  go depth;
  t

let test_serialization_roundtrip () =
  let rng = Prng.create 31 in
  let t = random_tree rng 4 in
  let path = Filename.temp_file "rules" ".rules" in
  Rule_tree.save path t;
  (match Rule_tree.load path with
  | Error msg -> Alcotest.fail msg
  | Ok t' ->
    Alcotest.(check int) "same rule count" (Rule_tree.num_rules t) (Rule_tree.num_rules t');
    (* Lookup agreement on many random points. *)
    let probe = Prng.create 77 in
    for _ = 1 to 500 do
      let m =
        Memory.make
          ~ack_ewma:(Prng.float probe Memory.max_value)
          ~send_ewma:(Prng.float probe Memory.max_value)
          ~rtt_ratio:(Prng.float probe Memory.max_value)
      in
      let a = Rule_tree.action t (Rule_tree.lookup t m) in
      let a' = Rule_tree.action t' (Rule_tree.lookup t' m) in
      if not (Action.equal a a') then Alcotest.failf "action mismatch at %s"
        (Format.asprintf "%a" Memory.pp m)
    done);
  Sys.remove path

let test_collapse_agreeing () =
  let t = Rule_tree.create () in
  ignore (Rule_tree.subdivide t 0 ~at:(mem 100. 100. 2.));
  (* Children all still share the default action: one collapse. *)
  Alcotest.(check int) "one split collapsed" 1 (Rule_tree.collapse_agreeing t);
  Alcotest.(check int) "single rule again" 1 (Rule_tree.num_rules t);
  Alcotest.(check bool) "action preserved" true
    (Action.equal Action.default
       (Rule_tree.action t (Rule_tree.lookup t (mem 1. 1. 1.))))

let test_collapse_respects_disagreement () =
  let t = Rule_tree.create () in
  let children = Rule_tree.subdivide t 0 ~at:(mem 100. 100. 2.) in
  Rule_tree.set_action t (List.hd children)
    { Action.multiple = 0.5; increment = 2.; intersend_ms = 1. };
  Alcotest.(check int) "disagreeing split kept" 0 (Rule_tree.collapse_agreeing t);
  Alcotest.(check int) "still eight rules" 8 (Rule_tree.num_rules t)

let test_collapse_cascades () =
  let t = Rule_tree.create () in
  ignore (Rule_tree.subdivide t 0 ~at:(mem 1000. 1000. 4.));
  let id = Rule_tree.lookup t (mem 1. 1. 1.) in
  ignore (Rule_tree.subdivide t id ~at:(mem 10. 10. 1.5));
  (* All 15 leaves share the default action: the inner split collapses,
     then the outer one does too, in a single pass. *)
  Alcotest.(check int) "both splits collapsed" 2 (Rule_tree.collapse_agreeing t);
  Alcotest.(check int) "single rule" 1 (Rule_tree.num_rules t);
  (* The collapsed tree still looks up correctly everywhere. *)
  Alcotest.(check bool) "lookup works" true
    (Rule_tree.lookup t (mem 5000. 5000. 10.) >= 0)

let test_collapse_partial () =
  let t = Rule_tree.create () in
  ignore (Rule_tree.subdivide t 0 ~at:(mem 1000. 1000. 4.));
  let inner_parent = Rule_tree.lookup t (mem 1. 1. 1.) in
  let inner = Rule_tree.subdivide t inner_parent ~at:(mem 10. 10. 1.5) in
  (* Make the outer level disagree so only the inner split collapses. *)
  let outer = Rule_tree.lookup t (mem 5000. 5000. 10.) in
  Rule_tree.set_action t outer
    { Action.multiple = 0.1; increment = 7.; intersend_ms = 3. };
  ignore inner;
  Alcotest.(check int) "inner collapsed only" 1 (Rule_tree.collapse_agreeing t);
  Alcotest.(check int) "eight rules remain" 8 (Rule_tree.num_rules t)

let test_num_rules_tracks_live_ids () =
  (* num_rules is now an O(1) counter; it must agree with the tree walk
     through arbitrary subdivide/collapse histories. *)
  let rng = Prng.create 91 in
  let t = Rule_tree.create () in
  let agree label =
    Alcotest.(check int) label (List.length (Rule_tree.live_ids t))
      (Rule_tree.num_rules t)
  in
  agree "fresh tree";
  for step = 1 to 12 do
    let ids = Rule_tree.live_ids t in
    let id = List.nth ids (Prng.int rng (List.length ids)) in
    ignore
      (Rule_tree.subdivide t id
         ~at:
           (Memory.make ~ack_ewma:(Prng.float rng 1000.)
              ~send_ewma:(Prng.float rng 1000.) ~rtt_ratio:(Prng.float rng 4.)));
    agree (Printf.sprintf "after subdivide %d" step);
    (* Perturb some actions so later collapses are partial. *)
    if step mod 3 = 0 then begin
      let ids = Rule_tree.live_ids t in
      let id = List.nth ids (Prng.int rng (List.length ids)) in
      Rule_tree.set_action t id
        { Action.multiple = 0.5; increment = 2.; intersend_ms = 1. }
    end;
    if step mod 4 = 0 then begin
      ignore (Rule_tree.collapse_agreeing t);
      agree (Printf.sprintf "after collapse %d" step)
    end
  done;
  ignore (Rule_tree.collapse_agreeing t);
  agree "after final collapse"

let test_subdivide_dead_id_raises () =
  let t = Rule_tree.create () in
  ignore (Rule_tree.subdivide t 0 ~at:(mem 100. 100. 2.));
  (* Rule 0 was retired by the subdivision. *)
  (try
     ignore (Rule_tree.subdivide t 0 ~at:(mem 10. 10. 1.5));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_load_rejects_garbage () =
  let path = Filename.temp_file "rules" ".rules" in
  Out_channel.with_open_text path (fun oc -> output_string oc "(not a rule table)");
  (match Rule_tree.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  Sys.remove path

(* --- full-fidelity (checkpoint-grade) serialization ------------------ *)

let test_full_roundtrip_preserves_everything () =
  (* to_sexp/of_sexp renumber ids; the checkpoint codec must not: ids,
     capacity (retired entries included), epochs and leaf flags all feed
     the optimizer's future, so they must survive exactly. *)
  let rng = Prng.create 23 in
  let t = random_tree rng 4 in
  List.iteri (fun i id -> Rule_tree.set_epoch t id (i mod 5)) (Rule_tree.live_ids t);
  match Rule_tree.of_sexp_full (Rule_tree.to_sexp_full t) with
  | Error e -> Alcotest.failf "of_sexp_full rejected to_sexp_full: %s" e
  | Ok back ->
    Alcotest.(check int) "capacity preserved" (Rule_tree.capacity t)
      (Rule_tree.capacity back);
    Alcotest.(check (list int)) "live ids preserved" (Rule_tree.live_ids t)
      (Rule_tree.live_ids back);
    List.iter
      (fun id ->
        Alcotest.(check int)
          (Printf.sprintf "epoch of rule %d" id)
          (Rule_tree.epoch t id) (Rule_tree.epoch back id);
        Alcotest.(check bool)
          (Printf.sprintf "action of rule %d" id)
          true
          (Action.equal (Rule_tree.action t id) (Rule_tree.action back id)))
      (Rule_tree.live_ids t);
    Alcotest.(check string) "second serialization identical"
      (Remy_util.Sexp.to_string (Rule_tree.to_sexp_full t))
      (Remy_util.Sexp.to_string (Rule_tree.to_sexp_full back))

let test_full_rejects_tampered_action () =
  let t = random_tree (Prng.create 7) 2 in
  (match Rule_tree.live_ids t with
  | id :: _ ->
    Rule_tree.set_action t id
      { Action.multiple = infinity; increment = 0.; intersend_ms = 1. }
  | [] -> Alcotest.fail "no live rules");
  match Rule_tree.of_sexp_full (Rule_tree.to_sexp_full t) with
  | Ok _ -> Alcotest.fail "accepted a non-finite action"
  | Error _ -> ()

let test_validate_names_offending_rule () =
  let t = random_tree (Prng.create 8) 2 in
  (match Rule_tree.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "healthy tree rejected: %s" e);
  let victim = List.nth (Rule_tree.live_ids t) 1 in
  Rule_tree.set_action t victim
    { Action.multiple = 1.; increment = Float.nan; intersend_ms = 1. };
  match Rule_tree.validate t with
  | Ok () -> Alcotest.fail "NaN action passed validation"
  | Error e ->
    let needle = Printf.sprintf "rule %d" victim in
    let n = String.length needle and h = String.length e in
    let rec scan i = i + n <= h && (String.sub e i n = needle || scan (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "error names %s" needle) true (scan 0)

let test_load_validated_rejects_out_of_bounds () =
  let t = Rule_tree.create () in
  Rule_tree.set_action t 0
    { Action.multiple = 1.; increment = 1e6; intersend_ms = 0.05 };
  let path = Filename.temp_file "rules" ".rules" in
  Rule_tree.save path t;
  (match Rule_tree.load_validated path with
  | Ok _ -> Alcotest.fail "accepted an out-of-bounds increment"
  | Error e ->
    Alcotest.(check bool) "mentions the path" true
      (String.length e > String.length path
      && String.sub e 0 (String.length path) = path));
  (* The unvalidated loader still reads it (back-compat for tooling
     that wants to inspect broken tables). *)
  (match Rule_tree.load path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "plain load should not validate: %s" e);
  Sys.remove path

(* Besides a random point, probe every live rule at its inclusive lo
   corner and its midpoint, which it must own, and at its exclusive hi
   corner, which belongs to whichever rule contains it — the half-open
   boundaries a descent off by one comparison would get wrong. *)
let prop_lookup_in_box =
  QCheck.Test.make ~name:"lookup returns a rule whose box contains the point"
    ~count:100
    QCheck.(triple small_nat (float_range 0. 16383.) (float_range 0. 16383.))
    (fun (seed, x, y) ->
      let t = random_tree (Prng.create (seed + 1)) 3 in
      let contains m =
        let b = Rule_tree.box t (Rule_tree.lookup t m) in
        let inside d = Memory.get m d >= fst b.(d) && Memory.get m d < snd b.(d) in
        inside 0 && inside 1 && inside 2
      in
      let at pick id =
        let b = Rule_tree.box t id in
        mem (pick b.(0)) (pick b.(1)) (pick b.(2))
      in
      let mid (lo, hi) = (lo +. hi) /. 2. in
      contains (mem x y (Float.min x y))
      && List.for_all
           (fun id ->
             Rule_tree.lookup t (at fst id) = id
             && Rule_tree.lookup t (at mid id) = id
             && contains (at snd id))
           (Rule_tree.live_ids t))

(* A load error names the path exactly once, first. *)
let occurrences ~sub s =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else go (i + 1) (if String.sub s i n = sub then acc + 1 else acc)
  in
  go 0 0

let check_names_path_once path = function
  | Ok _ -> Alcotest.failf "%s loaded" path
  | Error msg ->
    Alcotest.(check bool) ("starts with the path: " ^ msg) true
      (String.starts_with ~prefix:(path ^ ": ") msg);
    Alcotest.(check int) ("path named once: " ^ msg) 1 (occurrences ~sub:path msg);
    msg

let test_load_missing_names_path_once () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "remy-no-such-dir/delta1.rules"
  in
  let msg = check_names_path_once path (Rule_tree.load path) in
  Alcotest.(check string) "the system's message" (path ^ ": No such file or directory") msg

let test_load_parse_error_names_path () =
  let path = Filename.temp_file "remy_bad" ".rules" in
  Out_channel.with_open_text path (fun oc -> output_string oc "(rules (unclosed");
  let result = Rule_tree.load path in
  Sys.remove path;
  let msg = check_names_path_once path result in
  Alcotest.(check bool) ("line/column: " ^ msg) true (occurrences ~sub:"line" msg > 0)

let tests =
  [
    Alcotest.test_case "singleton tree" `Quick test_singleton;
    Alcotest.test_case "missing table names its path once" `Quick
      test_load_missing_names_path_once;
    Alcotest.test_case "parse error names the path" `Quick
      test_load_parse_error_names_path;
    Alcotest.test_case "subdivision partitions" `Quick test_subdivide_partitions;
    Alcotest.test_case "split point on high side" `Quick test_subdivide_boundary_point_is_high_side;
    Alcotest.test_case "degenerate split uses midpoint" `Quick test_subdivide_degenerate_point_uses_midpoint;
    Alcotest.test_case "dead parent retired" `Quick test_dead_parent_not_live;
    Alcotest.test_case "nested subdivision" `Quick test_nested_subdivision;
    Alcotest.test_case "epoch bookkeeping" `Quick test_epochs;
    Alcotest.test_case "action override" `Quick test_override;
    Alcotest.test_case "box accessor" `Quick test_box;
    Alcotest.test_case "collapse agreeing split" `Quick test_collapse_agreeing;
    Alcotest.test_case "collapse respects disagreement" `Quick test_collapse_respects_disagreement;
    Alcotest.test_case "collapse cascades" `Quick test_collapse_cascades;
    Alcotest.test_case "collapse partial" `Quick test_collapse_partial;
    Alcotest.test_case "num_rules tracks live ids" `Quick test_num_rules_tracks_live_ids;
    Alcotest.test_case "subdivide dead id raises" `Quick test_subdivide_dead_id_raises;
    Alcotest.test_case "serialization roundtrip" `Quick test_serialization_roundtrip;
    Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
    Alcotest.test_case "full roundtrip preserves ids/epochs/capacity" `Quick
      test_full_roundtrip_preserves_everything;
    Alcotest.test_case "full codec rejects tampered action" `Quick
      test_full_rejects_tampered_action;
    Alcotest.test_case "validate names the offending rule" `Quick
      test_validate_names_offending_rule;
    Alcotest.test_case "load_validated rejects out-of-bounds action" `Quick
      test_load_validated_rejects_out_of_bounds;
    QCheck_alcotest.to_alcotest prop_lookup_in_box;
  ]
