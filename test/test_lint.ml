(* The lint framework: pass behaviour over the seeded/clean fixture
   pairs in test/lint_fixtures, JSON rendering, suppression (inline
   annotations and the LINT_ALLOW file), exit codes — and the self-test
   that the repository's own lib/ and bin/ lint clean.

   Tests run from _build/default/test; the driver's root autodetection
   walks up to the repository root (the nearest dune-project), so
   fixture sources are read from the real tree and .cmt files from
   _build/default. *)

module D = Remy_lint_lib.Driver
module F = Remy_lint_lib.Finding
module R = Remy_obs.Record

let root =
  match D.autodetect_root (Sys.getcwd ()) with
  | Some r -> r
  | None -> failwith "test_lint: no dune-project above cwd"

let cfg ?passes ?rules ?allow_file paths =
  let c = D.default_config ~root in
  { c with D.paths; passes; rules; allow_file; require_cmt = true }

let run ?passes ?rules ?allow_file paths = D.run (cfg ?passes ?rules ?allow_file paths)

let fixture name = "test/lint_fixtures/" ^ name

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let check_no_errors (r : D.result) =
  Alcotest.(check (list string)) "no operational errors" [] r.D.errors

let lines_of (r : D.result) = List.map (fun (f : F.t) -> f.F.line) r.D.findings
let rules_of (r : D.result) =
  List.sort_uniq String.compare (List.map (fun (f : F.t) -> f.F.rule) r.D.findings)

(* --- domain-safety ------------------------------------------------- *)

let test_race_ref () =
  let r = run ~passes:[ "domain-safety" ] [ fixture "race_captured_ref.ml" ] in
  check_no_errors r;
  Alcotest.(check int) "one typed unit" 1 r.D.units_typed;
  Alcotest.(check (list string)) "rule" [ "domain-safety" ] (rules_of r);
  (* direct capture (incr, line 8); helper write+read (line 14, two ops);
     on_retry callback (line 21). *)
  Alcotest.(check (list int)) "finding lines" [ 8; 14; 14; 21 ] (lines_of r);
  let witnesses = List.map (fun (f : F.t) -> f.F.witness) r.D.findings in
  Alcotest.(check bool) "spawn witness present" true
    (List.exists (fun w -> contains_sub w "Domain.spawn") witnesses)

let test_race_hashtbl () =
  let r = run ~passes:[ "domain-safety" ] [ fixture "race_hashtbl.ml" ] in
  check_no_errors r;
  Alcotest.(check int) "two findings" 2 (List.length r.D.findings);
  List.iter
    (fun (f : F.t) ->
      Alcotest.(check string) "rule" "domain-safety" f.F.rule;
      Alcotest.(check bool) "hashtable op" true
        (contains_sub f.F.what "hashtable write"))
    r.D.findings

let test_race_clean () =
  let r = run ~passes:[ "domain-safety" ] [ fixture "race_clean.ml" ] in
  check_no_errors r;
  Alcotest.(check int) "typed" 1 r.D.units_typed;
  Alcotest.(check (list int)) "no findings" [] (lines_of r)

(* --- hot-alloc ------------------------------------------------------ *)

let test_hot_seeded () =
  let r = run ~passes:[ "hot-alloc" ] [ fixture "hot_seeded.ml" ] in
  check_no_errors r;
  Alcotest.(check (list string)) "rule" [ "hot-alloc" ] (rules_of r);
  (* tuple, cons, record, Array.make, closure, omitted-label partial. *)
  Alcotest.(check (list int)) "finding lines" [ 7; 10; 13; 16; 20; 26 ] (lines_of r)

let test_hot_clean () =
  let r = run ~passes:[ "hot-alloc" ] [ fixture "hot_clean.ml" ] in
  check_no_errors r;
  Alcotest.(check (list int)) "no findings" [] (lines_of r)

(* --- global-mutable ------------------------------------------------- *)

let test_global_seeded () =
  let r = run ~rules:[ "global-mutable" ] [ fixture "global_seeded.ml" ] in
  check_no_errors r;
  (* ref, Hashtbl.create, Buffer.create, mutable-record literal; the
     Atomic/Mutex/array/allow-annotated bindings stay silent. *)
  Alcotest.(check (list int)) "finding lines" [ 6; 7; 8; 12 ] (lines_of r)

(* --- determinism + allow-annotation ergonomics ---------------------- *)

let test_det_seeded () =
  let r = run ~passes:[ "determinism" ] [ fixture "det_seeded.ml" ] in
  check_no_errors r;
  (* hash, compare-as-value, wall clock, random; the two audited_* lines
     are silenced by a preceding-line and a same-line annotation. *)
  Alcotest.(check (list int)) "finding lines" [ 4; 5; 6; 7 ] (lines_of r);
  Alcotest.(check (list string)) "rules"
    [ "poly-compare"; "poly-hash"; "random"; "wall-clock" ]
    (rules_of r)

(* --- JSON rendering ------------------------------------------------- *)

let test_json () =
  let r = run ~passes:[ "hot-alloc" ] [ fixture "hot_seeded.ml" ] in
  let lines =
    D.render_json r |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  (* six findings + the summary trailer *)
  Alcotest.(check int) "record count" 7 (List.length lines);
  let records =
    List.map
      (fun l ->
        match R.of_json l with
        | Ok rec_ -> rec_
        | Error e -> Alcotest.failf "bad JSON record %S: %s" l e)
      lines
  in
  let first = List.hd records in
  let str k = Option.bind (R.find k first) R.to_str in
  Alcotest.(check (option string)) "file" (Some (fixture "hot_seeded.ml")) (str "file");
  Alcotest.(check (option string)) "pass" (Some "hot-alloc") (str "pass");
  Alcotest.(check (option string)) "rule" (Some "hot-alloc") (str "rule");
  Alcotest.(check (option string)) "severity" (Some "error") (str "severity");
  Alcotest.(check (option int)) "line" (Some 7)
    (Option.bind (R.find "line" first) R.to_int);
  let summary = List.nth records 6 in
  Alcotest.(check (option int)) "summary findings" (Some 6)
    (Option.bind (R.find "findings" summary) R.to_int);
  Alcotest.(check (option int)) "summary exit" (Some 1)
    (Option.bind (R.find "exit_code" summary) R.to_int)

(* --- suppression file ----------------------------------------------- *)

let with_temp_file contents f =
  let path = Filename.temp_file "lint_allow" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_suppression_file () =
  with_temp_file
    "# audit for the seeded fixture\n\
     hot-alloc test/lint_fixtures/hot_seeded.ml seeded on purpose\n"
    (fun allow ->
      let r =
        run ~passes:[ "hot-alloc" ] ~allow_file:allow [ fixture "hot_seeded.ml" ]
      in
      check_no_errors r;
      Alcotest.(check int) "all suppressed" 0 (List.length r.D.findings);
      Alcotest.(check int) "suppressed count" 6 (List.length r.D.suppressed);
      Alcotest.(check int) "exit 0" 0 (D.exit_code r);
      let _, (entry : Remy_lint_lib.Suppress.entry) = List.hd r.D.suppressed in
      Alcotest.(check string) "justification kept" "seeded on purpose"
        entry.Remy_lint_lib.Suppress.why)

let test_suppression_needs_why () =
  with_temp_file "hot-alloc test/lint_fixtures/hot_seeded.ml\n" (fun allow ->
      let r =
        run ~passes:[ "hot-alloc" ] ~allow_file:allow [ fixture "hot_seeded.ml" ]
      in
      Alcotest.(check bool) "errors" true (r.D.errors <> []);
      Alcotest.(check int) "exit 2" 2 (D.exit_code r))

(* --- exit codes and registry ---------------------------------------- *)

let test_exit_codes () =
  let clean = run ~passes:[ "domain-safety" ] [ fixture "race_clean.ml" ] in
  Alcotest.(check int) "clean is 0" 0 (D.exit_code clean);
  let dirty = run ~passes:[ "domain-safety" ] [ fixture "race_captured_ref.ml" ] in
  Alcotest.(check int) "findings are 1" 1 (D.exit_code dirty);
  let bad = run ~passes:[ "no-such-pass" ] [ fixture "race_clean.ml" ] in
  Alcotest.(check int) "unknown pass is 2" 2 (D.exit_code bad);
  let badrule = run ~rules:[ "no-such-rule" ] [ fixture "race_clean.ml" ] in
  Alcotest.(check int) "unknown rule is 2" 2 (D.exit_code badrule)

let test_registry () =
  Alcotest.(check (list string)) "passes"
    [ "determinism"; "hot-alloc"; "domain-safety" ]
    (List.map (fun (p : Remy_lint_lib.Pass.t) -> p.Remy_lint_lib.Pass.name)
       Remy_lint_lib.Registry.all)

(* --- the repository lints clean -------------------------------------- *)

let test_repo_clean () =
  let c = D.default_config ~root in
  let r = D.run { c with D.require_cmt = true } in
  check_no_errors r;
  List.iter
    (fun (f : F.t) -> Printf.eprintf "unexpected: %s\n" (F.to_string f))
    r.D.findings;
  Alcotest.(check int) "lib/ and bin/ lint clean" 0 (List.length r.D.findings);
  Alcotest.(check (list string)) "par.ml audit applied" [ "lib/core/par.ml" ]
    (List.map (fun ((f : F.t), _) -> f.F.file) r.D.suppressed);
  Alcotest.(check bool) "typed coverage" true (r.D.units_typed >= 50);
  Alcotest.(check bool) "source coverage" true (r.D.files_scanned >= 60)

let tests =
  [
    Alcotest.test_case "domain-safety: seeded ref races" `Quick test_race_ref;
    Alcotest.test_case "domain-safety: seeded hashtable races" `Quick test_race_hashtbl;
    Alcotest.test_case "domain-safety: protected twins clean" `Quick test_race_clean;
    Alcotest.test_case "hot-alloc: seeded allocations" `Quick test_hot_seeded;
    Alcotest.test_case "hot-alloc: clean twin" `Quick test_hot_clean;
    Alcotest.test_case "global-mutable: seeded globals" `Quick test_global_seeded;
    Alcotest.test_case "determinism: seeded + allow ergonomics" `Quick test_det_seeded;
    Alcotest.test_case "json records round-trip" `Quick test_json;
    Alcotest.test_case "suppression file" `Quick test_suppression_file;
    Alcotest.test_case "suppression requires justification" `Quick
      test_suppression_needs_why;
    Alcotest.test_case "exit codes" `Quick test_exit_codes;
    Alcotest.test_case "pass registry" `Quick test_registry;
    Alcotest.test_case "repository lints clean" `Quick test_repo_clean;
  ]
