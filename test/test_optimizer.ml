open Remy

(* Keep these tiny: the optimizer is exercised for real by remy_train;
   here we verify the search loop's mechanics. *)

let tiny_model =
  { (Net_model.onex ~sim_duration:2.0 ()) with Net_model.max_senders = 1 }

let config ?(max_epochs = 1) ?(wall = 300.) ?(rounds = 6) ?(domains = 1) () =
  Optimizer.default_config ~specimens_per_step:3 ~domains
    ~candidate_multipliers:[ 1. ] ~rounds_per_rule:rounds ~max_epochs
    ~wall_budget_s:wall ~seed:5 ~model:tiny_model
    ~objective:(Objective.proportional ~delta:1.0) ()

let test_improves_score () =
  let report = Optimizer.design (config ()) in
  Alcotest.(check bool) "some improvement found" true (report.Optimizer.improvements > 0);
  Alcotest.(check bool) "score finite" true (Float.is_finite report.Optimizer.final_score);
  (* The default single rule (b = 1) is far from optimal on a 15 Mbps
     link; any improvement run must beat its baseline score. *)
  let specimens = Net_model.draw_many tiny_model (Remy_util.Prng.create 123) 4 in
  let score tree =
    (Evaluator.score ~domains:1 ~objective:(Objective.proportional ~delta:1.0)
       ~queue_capacity:tiny_model.Net_model.queue_capacity
       ~duration:tiny_model.Net_model.sim_duration tree specimens)
      .Evaluator.mean_score
  in
  let default_score = score (Rule_tree.create ()) in
  let trained_score = score report.Optimizer.tree in
  Alcotest.(check bool) "trained beats default" true (trained_score > default_score)

let test_epoch_accounting () =
  let report = Optimizer.design (config ~max_epochs:2 ~wall:60. ()) in
  Alcotest.(check bool) "epochs advanced" true (report.Optimizer.epochs >= 1);
  Alcotest.(check bool) "evaluations counted" true (report.Optimizer.evaluations > 0)

let test_deterministic_given_seed () =
  (* rounds_per_rule bounds the search deterministically, so two runs
     with the same seed must agree exactly. *)
  let r1 = Optimizer.design (config ~rounds:3 ()) in
  let r2 = Optimizer.design (config ~rounds:3 ()) in
  Alcotest.(check int) "same improvements" r1.Optimizer.improvements r2.Optimizer.improvements;
  Alcotest.(check (float 0.)) "same final score" r1.Optimizer.final_score
    r2.Optimizer.final_score

(* The tentpole's safety property: neither the domain count nor the
   incremental specimen cache may influence the designed table — only
   wall time.  Compare the serialized trees (actions, structure) and the
   exact final score bits. *)
let check_same_design label (a : Optimizer.report) (b : Optimizer.report) =
  Alcotest.(check string)
    (label ^ ": identical rule table")
    (Remy_util.Sexp.to_string (Rule_tree.to_sexp a.Optimizer.tree))
    (Remy_util.Sexp.to_string (Rule_tree.to_sexp b.Optimizer.tree));
  Alcotest.(check (float 0.))
    (label ^ ": identical final score")
    a.Optimizer.final_score b.Optimizer.final_score;
  Alcotest.(check int)
    (label ^ ": identical evaluations")
    a.Optimizer.evaluations b.Optimizer.evaluations;
  Alcotest.(check int)
    (label ^ ": identical improvements")
    a.Optimizer.improvements b.Optimizer.improvements

(* A config that subdivides (k_subdivide 1) so the incremental cache has
   rules to skip and the tree shape can expose divergence. *)
let invariance_config ~domains =
  Optimizer.default_config ~specimens_per_step:3 ~domains
    ~candidate_multipliers:[ 1. ] ~rounds_per_rule:2 ~k_subdivide:1
    ~max_epochs:2 ~wall_budget_s:300. ~seed:5 ~model:tiny_model
    ~objective:(Objective.proportional ~delta:1.0) ()

let test_domain_count_invariant () =
  let r1 = Optimizer.design (invariance_config ~domains:1) in
  let r4 = Optimizer.design (invariance_config ~domains:4) in
  check_same_design "domains 1 vs 4" r1 r4

let test_incremental_invariant () =
  let cfg = invariance_config ~domains:2 in
  let on = Optimizer.design cfg in
  (* The full re-simulation engine is the cache's oracle. *)
  let off =
    Par.Pool.with_pool ~domains:2 (fun pool ->
        Optimizer.design
          ~backend:(Evaluator.on_pool pool (Optimizer.eval_params cfg) ~incremental:false)
          cfg)
  in
  check_same_design "incremental on vs off" on off;
  Alcotest.(check int) "cache off skips nothing" 0 off.Optimizer.spec_skips;
  Alcotest.(check int) "same specimen grid covered"
    (off.Optimizer.spec_sims)
    (on.Optimizer.spec_sims + on.Optimizer.spec_skips);
  Alcotest.(check bool) "cache on skipped some simulations" true
    (on.Optimizer.spec_skips > 0)

let test_prune_agreeing_runs () =
  (* Force subdivision early (K = 1) with a model so easy that children
     rarely learn distinct actions; pruning must keep the tree small and
     the run must not crash. *)
  let cfg =
    Optimizer.default_config ~specimens_per_step:2 ~domains:1
      ~candidate_multipliers:[ 1. ] ~rounds_per_rule:1 ~k_subdivide:1
      ~max_epochs:3 ~prune_agreeing:true ~wall_budget_s:60. ~seed:5
      ~model:tiny_model ~objective:(Objective.proportional ~delta:1.0) ()
  in
  let report = Optimizer.design cfg in
  Alcotest.(check bool) "ran to completion" true (report.Optimizer.epochs >= 1);
  Alcotest.(check bool) "tree stays well-formed" true
    (Rule_tree.num_rules report.Optimizer.tree >= 1)

let test_wall_budget_respected () =
  let t0 = Unix.gettimeofday () in
  let _ = Optimizer.design (config ~max_epochs:100 ~wall:2. ()) in
  let elapsed = Unix.gettimeofday () -. t0 in
  (* One improvement round may overshoot slightly; it must not run the
     full 100 epochs. *)
  Alcotest.(check bool) "stopped near budget" true (elapsed < 30.)

let test_telemetry_one_record_per_epoch () =
  let epochs_seen = ref [] in
  let report =
    Optimizer.design
      ~progress:(fun ev ->
        match ev with
        | Optimizer.Epoch_done e -> epochs_seen := e :: !epochs_seen
        | _ -> ())
      (config ~max_epochs:2 ~wall:60. ())
  in
  let epochs = List.rev !epochs_seen in
  Alcotest.(check int) "one record per completed epoch" report.Optimizer.epochs
    (List.length epochs);
  List.iteri
    (fun i (e : Remy_obs.Telemetry.epoch) ->
      Alcotest.(check int) "epoch numbering" i e.Remy_obs.Telemetry.epoch)
    epochs;
  match List.rev epochs with
  | last :: _ ->
    (* Counters are cumulative, so the final record equals the report. *)
    Alcotest.(check int) "final evaluations" report.Optimizer.evaluations
      last.Remy_obs.Telemetry.evaluations;
    Alcotest.(check int) "final improvements" report.Optimizer.improvements
      last.Remy_obs.Telemetry.improvements;
    Alcotest.(check int) "final subdivisions" report.Optimizer.subdivisions
      last.Remy_obs.Telemetry.subdivisions;
    Alcotest.(check (float 0.)) "final score" report.Optimizer.final_score
      last.Remy_obs.Telemetry.score;
    Alcotest.(check bool) "wall clock advanced" true
      (last.Remy_obs.Telemetry.wall_s >= 0.)
  | [] -> Alcotest.fail "expected at least one epoch"

(* --- crash-safe training: interrupt, checkpoint, resume -------------- *)

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "remy-opt-ckpt-%d-%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

(* Interrupt after [k] completed rounds, then resume from the forced
   checkpoint: the final table, score and counters must be bit-identical
   to a run that was never interrupted.  This is the tentpole's
   acceptance criterion, exercised at the library level (the CI resume
   job drives the same property through the remy_train binary). *)
let check_resume_bit_identical ~stop_after_rounds =
  let cfg = invariance_config ~domains:2 in
  let straight = Optimizer.design cfg in
  let dir = tmp_dir () in
  let rounds_seen = ref 0 in
  let part =
    Optimizer.design
      ~progress:(function Optimizer.Improving _ -> incr rounds_seen | _ -> ())
      ~checkpoint:{ Optimizer.dir; every_rounds = 1 }
      ~stop_requested:(fun () -> !rounds_seen >= stop_after_rounds)
      cfg
  in
  Alcotest.(check bool)
    (Printf.sprintf "stop at round %d: interrupted" stop_after_rounds)
    true part.Optimizer.interrupted;
  Alcotest.(check bool) "partial run did less work" true
    (part.Optimizer.evaluations < straight.Optimizer.evaluations);
  let snap =
    match Checkpoint.load ~dir with
    | Ok s -> s
    | Error e -> Alcotest.failf "checkpoint unreadable after interrupt: %s" e
  in
  Alcotest.(check int)
    (Printf.sprintf "snapshot records %d rounds" stop_after_rounds)
    stop_after_rounds snap.Checkpoint.rounds;
  let resumed = Optimizer.design ~resume:snap cfg in
  check_same_design
    (Printf.sprintf "straight vs interrupt-at-%d+resume" stop_after_rounds)
    straight resumed;
  Alcotest.(check int) "same total rounds" straight.Optimizer.rounds
    resumed.Optimizer.rounds

let test_resume_bit_identical_round1 () = check_resume_bit_identical ~stop_after_rounds:1

let test_resume_bit_identical_round3 () = check_resume_bit_identical ~stop_after_rounds:3

let test_resume_chain () =
  (* Interrupt twice in the same run: resume(resume(interrupt)) must
     still match straight-through. *)
  let cfg = invariance_config ~domains:1 in
  let straight = Optimizer.design cfg in
  let dir = tmp_dir () in
  let stop_at k =
    let seen = ref 0 in
    ( (fun ev -> match ev with Optimizer.Improving _ -> incr seen | _ -> ()),
      fun () -> !seen >= k )
  in
  let p1, s1 = stop_at 1 in
  let r1 =
    Optimizer.design ~progress:p1
      ~checkpoint:{ Optimizer.dir; every_rounds = 1 }
      ~stop_requested:s1 cfg
  in
  Alcotest.(check bool) "first leg interrupted" true r1.Optimizer.interrupted;
  let snap1 =
    match Checkpoint.load ~dir with Ok s -> s | Error e -> Alcotest.failf "%s" e
  in
  let p2, s2 = stop_at 2 in
  let r2 =
    Optimizer.design ~progress:p2
      ~checkpoint:{ Optimizer.dir; every_rounds = 1 }
      ~resume:snap1 ~stop_requested:s2 cfg
  in
  Alcotest.(check bool) "second leg interrupted" true r2.Optimizer.interrupted;
  let snap2 =
    match Checkpoint.load ~dir with Ok s -> s | Error e -> Alcotest.failf "%s" e
  in
  Alcotest.(check bool) "progress accumulated across legs" true
    (snap2.Checkpoint.rounds > snap1.Checkpoint.rounds);
  let final = Optimizer.design ~resume:snap2 cfg in
  check_same_design "straight vs twice-interrupted" straight final

let test_resume_rejects_mismatched_config () =
  let cfg = invariance_config ~domains:1 in
  let dir = tmp_dir () in
  let seen = ref 0 in
  let _ =
    Optimizer.design
      ~progress:(function Optimizer.Improving _ -> incr seen | _ -> ())
      ~checkpoint:{ Optimizer.dir; every_rounds = 1 }
      ~stop_requested:(fun () -> !seen >= 1)
      cfg
  in
  let snap =
    match Checkpoint.load ~dir with Ok s -> s | Error e -> Alcotest.failf "%s" e
  in
  let other = { cfg with Optimizer.seed = cfg.Optimizer.seed + 1 } in
  (try
     ignore (Optimizer.design ~resume:snap other);
     Alcotest.fail "resume under a different seed was accepted"
   with Invalid_argument _ -> ());
  (* Budget fields are extendable: a bigger epoch budget must resume. *)
  let extended = { cfg with Optimizer.max_epochs = cfg.Optimizer.max_epochs + 1 } in
  let r = Optimizer.design ~resume:snap extended in
  Alcotest.(check bool) "extended budget resumes fine" true
    (r.Optimizer.epochs = extended.Optimizer.max_epochs)

(* A pool's [domains] counts the submitting domain, so the default must
   be the core count itself: one less left a 2-core host on one domain. *)
let test_default_domains () =
  let c =
    Optimizer.default_config ~model:tiny_model
      ~objective:(Objective.proportional ~delta:1.0) ()
  in
  Alcotest.(check int) "one domain per core" (Domain.recommended_domain_count ())
    c.Optimizer.domains

let test_config_fingerprint_scope () =
  let base = invariance_config ~domains:2 in
  let fp = Optimizer.config_fingerprint in
  Alcotest.(check string) "domains excluded" (fp base)
    (fp { base with Optimizer.domains = 7 });
  Alcotest.(check string) "budgets excluded" (fp base)
    (fp { base with Optimizer.max_epochs = 99; wall_budget_s = 1e9 });
  Alcotest.(check string) "retry policy excluded" (fp base)
    (fp { base with Optimizer.task_retries = 5; stall_timeout_s = Some 60. });
  Alcotest.(check bool) "seed included" true
    (fp base <> fp { base with Optimizer.seed = base.Optimizer.seed + 1 });
  Alcotest.(check bool) "k_subdivide included" true
    (fp base <> fp { base with Optimizer.k_subdivide = 9 });
  Alcotest.(check bool) "objective included" true
    (fp base <> fp { base with Optimizer.objective = Objective.min_potential_delay })

let test_checkpoint_events_emitted () =
  let cfg = invariance_config ~domains:1 in
  let dir = tmp_dir () in
  let saves = ref 0 in
  let seen = ref 0 in
  let _ =
    Optimizer.design
      ~progress:(fun ev ->
        match ev with
        | Optimizer.Robustness
            (Remy_obs.Telemetry.Checkpoint_written { path; duration_s; _ }) ->
          incr saves;
          Alcotest.(check string) "event names the file" (Checkpoint.file ~dir) path;
          Alcotest.(check bool) "duration nonnegative" true (duration_s >= 0.)
        | Optimizer.Improving _ -> incr seen
        | _ -> ())
      ~checkpoint:{ Optimizer.dir; every_rounds = 1 }
      ~stop_requested:(fun () -> !seen >= 1)
      cfg
  in
  (* Initial checkpoint + the forced one at the interrupt, at least. *)
  Alcotest.(check bool) "checkpoints written" true (!saves >= 2);
  Alcotest.(check bool) "file exists" true (Sys.file_exists (Checkpoint.file ~dir))

let test_telemetry_record_roundtrip () =
  let e =
    {
      Remy_obs.Telemetry.epoch = 3;
      live_rules = 8;
      most_used_rule = Some 5;
      evaluations = 120;
      improvements = 14;
      subdivisions = 1;
      score = -2.125;
      wall_s = 12.5;
      domains = 4;
      par_tasks = 480;
      par_spawns = 360;
      par_jobs = 33;
      par_helper_tasks = 120;
      spec_sims = 400;
      spec_skips = 80;
    }
  in
  (match Remy_obs.Telemetry.of_record (Remy_obs.Telemetry.to_record e) with
  | Some back -> Alcotest.(check bool) "round-trips exactly" true (back = e)
  | None -> Alcotest.fail "of_record rejected to_record output");
  let e_none = { e with Remy_obs.Telemetry.most_used_rule = None } in
  match Remy_obs.Telemetry.of_record (Remy_obs.Telemetry.to_record e_none) with
  | Some back -> Alcotest.(check bool) "None rule round-trips" true (back = e_none)
  | None -> Alcotest.fail "of_record rejected record without most_used_rule"

let test_robustness_record_roundtrip () =
  let events =
    [
      Remy_obs.Telemetry.Checkpoint_written
        { epoch = 2; rounds = 9; duration_s = 0.0125; path = "ckpt/checkpoint.sexp" };
      Remy_obs.Telemetry.Resumed_from
        { epoch = 2; rounds = 9; elapsed_s = 31.5; path = "ckpt/checkpoint.sexp" };
      Remy_obs.Telemetry.Worker_retry
        { task = 17; attempt = 2; error = "Failure(\"boom\")" };
    ]
  in
  List.iter
    (fun e ->
      match
        Remy_obs.Telemetry.robustness_of_record
          (Remy_obs.Telemetry.robustness_to_record e)
      with
      | Some back -> Alcotest.(check bool) "round-trips exactly" true (back = e)
      | None -> Alcotest.fail "robustness_of_record rejected its own encoding")
    events;
  (* Every event kind by its encoding, the vocabulary a telemetry reader
     sees: each line decodes to an event that re-encodes to the same
     bytes, and that event survives its own round trip. *)
  List.iter
    (fun line ->
      match Remy_obs.Record.of_json line with
      | Error e -> Alcotest.failf "%s: %s" line e
      | Ok r -> (
        match Remy_obs.Telemetry.robustness_of_record r with
        | None -> Alcotest.failf "robustness_of_record rejected %s" line
        | Some e ->
          Alcotest.(check string) "re-encodes to the same line" line
            (Remy_obs.Record.to_json (Remy_obs.Telemetry.robustness_to_record e));
          Alcotest.(check bool) "event round-trips" true
            (Remy_obs.Telemetry.robustness_of_record
               (Remy_obs.Telemetry.robustness_to_record e)
            = Some e)))
    [
      {|{"event":"checkpoint_written","epoch":2,"rounds":9,"duration_s":0.0125,"path":"ckpt/checkpoint.sexp"}|};
      {|{"event":"resumed_from","epoch":2,"rounds":9,"elapsed_s":31.5,"path":"ckpt/checkpoint.sexp"}|};
      {|{"event":"worker_retry","task":17,"attempt":2,"error":"Failure(\"boom\")"}|};
      {|{"event":"table_verified","rounds":4,"rules":8,"sound":false,"problems":3,"window_hi":4096.5}|};
      {|{"event":"worker_joined","worker":1,"addr":"spawn:4242","pid":4242}|};
      {|{"event":"worker_lost","worker":0,"addr":"127.0.0.1:7000","reason":"EOF","requeued":2}|};
      {|{"event":"task_reissued","index":17,"from_worker":0,"to_worker":1}|};
    ];
  (* The two record families must not decode as each other: that is what
     keeps a mixed telemetry stream unambiguous. *)
  let ep =
    {
      Remy_obs.Telemetry.epoch = 0;
      live_rules = 1;
      most_used_rule = None;
      evaluations = 0;
      improvements = 0;
      subdivisions = 0;
      score = 0.;
      wall_s = 0.;
      domains = 1;
      par_tasks = 0;
      par_spawns = 0;
      par_jobs = 0;
      par_helper_tasks = 0;
      spec_sims = 0;
      spec_skips = 0;
    }
  in
  Alcotest.(check bool) "epoch record is not a robustness event" true
    (Remy_obs.Telemetry.robustness_of_record (Remy_obs.Telemetry.to_record ep)
    = None);
  Alcotest.(check bool) "robustness event is not an epoch record" true
    (Remy_obs.Telemetry.of_record
       (Remy_obs.Telemetry.robustness_to_record (List.hd events))
    = None)

let test_sink_append_mode () =
  let write_batch ~append path events =
    let sink = Remy_obs.Sink.to_file ~append path in
    List.iter (Remy_obs.Telemetry.write_robustness sink) events;
    Remy_obs.Sink.close sink
  in
  let ck rounds =
    Remy_obs.Telemetry.Checkpoint_written
      { epoch = 0; rounds; duration_s = 0.001; path = "ckpt" }
  in
  (* JSONL: appending keeps the old lines. *)
  let jsonl = Filename.temp_file "telemetry" ".jsonl" in
  write_batch ~append:false jsonl [ ck 1; ck 2 ];
  write_batch ~append:true jsonl [ ck 3 ];
  (match Remy_obs.Sink.read_file jsonl with
  | Error e -> Alcotest.failf "re-reading appended jsonl: %s" e
  | Ok records ->
    Alcotest.(check int) "jsonl keeps earlier records" 3 (List.length records));
  Sys.remove jsonl;
  (* CSV: appending to a non-empty file must not write a second header. *)
  let csv = Filename.temp_file "telemetry" ".csv" in
  write_batch ~append:false csv [ ck 1 ];
  write_batch ~append:true csv [ ck 2; ck 3 ];
  let lines = In_channel.with_open_text csv In_channel.input_lines in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
    scan 0
  in
  (* Only the header row names the [duration_s] column; data rows carry
     its value. *)
  let headers = List.filter (fun l -> contains l "duration_s") lines in
  Alcotest.(check int) "csv rows: one header + three records" 4 (List.length lines);
  Alcotest.(check int) "csv has exactly one header line" 1 (List.length headers);
  (match Remy_obs.Sink.read_file csv with
  | Error e -> Alcotest.failf "re-reading appended csv: %s" e
  | Ok records ->
    Alcotest.(check int) "csv keeps earlier records" 3 (List.length records));
  Sys.remove csv;
  (* Append into a file that does not exist yet still writes the header. *)
  let fresh = Filename.temp_file "telemetry" ".csv" in
  Sys.remove fresh;
  write_batch ~append:true fresh [ ck 1 ];
  (match Remy_obs.Sink.read_file fresh with
  | Error e -> Alcotest.failf "append-to-fresh csv: %s" e
  | Ok records -> Alcotest.(check int) "header written when empty" 1 (List.length records));
  Sys.remove fresh

let tests =
  [
    Alcotest.test_case "improves over default rule" `Slow test_improves_score;
    Alcotest.test_case "epoch accounting" `Slow test_epoch_accounting;
    Alcotest.test_case "deterministic given seed" `Slow test_deterministic_given_seed;
    Alcotest.test_case "design invariant to domain count" `Slow
      test_domain_count_invariant;
    Alcotest.test_case "design invariant to incremental cache" `Slow
      test_incremental_invariant;
    Alcotest.test_case "prune-agreeing mode runs" `Slow test_prune_agreeing_runs;
    Alcotest.test_case "wall budget respected" `Slow test_wall_budget_respected;
    Alcotest.test_case "telemetry: one record per epoch" `Slow
      test_telemetry_one_record_per_epoch;
    Alcotest.test_case "telemetry record round-trip" `Quick
      test_telemetry_record_roundtrip;
    Alcotest.test_case "robustness record round-trip" `Quick
      test_robustness_record_roundtrip;
    Alcotest.test_case "sink append mode" `Quick test_sink_append_mode;
    Alcotest.test_case "resume after round 1 is bit-identical" `Slow
      test_resume_bit_identical_round1;
    Alcotest.test_case "resume after round 3 is bit-identical" `Slow
      test_resume_bit_identical_round3;
    Alcotest.test_case "twice-interrupted resume chain" `Slow test_resume_chain;
    Alcotest.test_case "resume guards the config fingerprint" `Slow
      test_resume_rejects_mismatched_config;
    Alcotest.test_case "config fingerprint scope" `Quick test_config_fingerprint_scope;
    Alcotest.test_case "default domains is the core count" `Quick test_default_domains;
    Alcotest.test_case "checkpoint events emitted" `Slow
      test_checkpoint_events_emitted;
  ]
