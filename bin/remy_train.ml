(* remy_train: design a RemyCC offline (the paper's "Remy" program).

   Examples:
     remy_train --model general --delta 1 -o data/delta1.rules
     remy_train --model datacenter --objective mpd -o data/datacenter.rules
     remy_train --telemetry train.jsonl -o remycc.rules
     remy_train --checkpoint ckpt -o remycc.rules          # crash-safe
     remy_train --checkpoint ckpt --resume -o remycc.rules # continue
     remy_train --verify -o remycc.rules   # statically check every round *)

open Cmdliner
open Remy

let model_conv =
  Arg.enum
    [
      ("general", `General);
      ("onex", `Onex);
      ("tenx", `Tenx);
      ("datacenter", `Datacenter);
      ("coexist", `Coexist);
    ]

let objective_conv = Arg.enum [ ("proportional", `Proportional); ("mpd", `Mpd) ]

(* Graceful interrupt: the first SIGINT/SIGTERM asks the optimizer to
   stop at the next round boundary (checkpoint + clean exit); a second
   signal aborts immediately.  OCaml runs handlers at safe points in the
   main thread, so the eprintf and exit here are fine. *)
let stop_flag = Atomic.make false

let install_signal_handlers () =
  let hits = Atomic.make 0 in
  let handle name (_ : int) =
    if Atomic.fetch_and_add hits 1 = 0 then begin
      Atomic.set stop_flag true;
      Printf.eprintf
        "\n\
         %s received: finishing the in-flight round, then checkpointing and \
         exiting (signal again to abort immediately)\n\
         %!"
        name
    end
    else exit 130
  in
  List.iter
    (fun (signo, name) ->
      try Sys.set_signal signo (Sys.Signal_handle (handle name))
      with Invalid_argument _ | Sys_error _ -> ())
    [ (Sys.sigint, "SIGINT"); (Sys.sigterm, "SIGTERM") ]

let run model topology objective delta epochs specimens multipliers rounds
    prune domains wall seed sim_duration task_retries
    stall_timeout checkpoint_dir resume checkpoint_every stop_after output
    telemetry quiet verify profile manifest workers worker_timeout
    chaos_kill_worker =
  let model =
    match model with
    | `General -> Net_model.general ?sim_duration ()
    | `Onex -> Net_model.onex ?sim_duration ()
    | `Tenx -> Net_model.tenx ?sim_duration ()
    | `Datacenter -> Net_model.datacenter ?sim_duration ()
    | `Coexist -> Net_model.coexist ?sim_duration ()
  in
  (match topology with
  | Some name when Remy_cc.Topology.builder_of_name name = None ->
    Printf.eprintf "error: unknown topology %S (known: %s)\n" name
      (String.concat ", " Remy_cc.Topology.names);
    exit 1
  | _ -> ());
  let model = { model with Net_model.topology } in
  let objective =
    match objective with
    | `Proportional -> Objective.proportional ~delta
    | `Mpd -> Objective.min_potential_delay
  in
  let config =
    Optimizer.default_config ~specimens_per_step:specimens ~max_epochs:epochs
      ~candidate_multipliers:multipliers ~rounds_per_rule:rounds
      ~prune_agreeing:prune ?domains
      ~wall_budget_s:wall ~seed ~task_retries ?stall_timeout_s:stall_timeout
      ~model ~objective ()
  in
  let checkpoint =
    Option.map
      (fun dir -> { Optimizer.dir; every_rounds = checkpoint_every })
      checkpoint_dir
  in
  let snapshot =
    if not resume then None
    else
      match checkpoint_dir with
      | None ->
        Printf.eprintf "error: --resume requires --checkpoint DIR\n";
        exit 2
      | Some dir -> (
        match Checkpoint.load ~dir with
        | Error e ->
          Printf.eprintf "error: cannot resume: %s\n" e;
          exit 2
        | Ok snap -> (
          match
            Checkpoint.check_config snap
              ~config_hash:(Optimizer.config_fingerprint config)
          with
          | Error e ->
            Printf.eprintf "error: cannot resume: %s\n" e;
            exit 2
          | Ok () -> Some snap))
  in
  (* A resumed run appends to its telemetry file so the stream stays
     continuous across interruptions. *)
  let sink =
    Option.map
      (fun path ->
        try Remy_obs.Sink.to_file ~append:resume path
        with Sys_error msg ->
          Printf.eprintf "error: cannot open telemetry output: %s\n" msg;
          exit 1)
      telemetry
  in
  (* One monotonic reading anchors the whole run: telemetry wall_s (via
     ~now0), the manifest's wall_s, and the final console summary all
     measure from here, so the artifacts are directly comparable. *)
  let t0 = Remy_obs.Clock.now_s () in
  if Option.is_some profile then begin
    Remy_obs.Profiler.enable ();
    Remy_obs.Metrics.enable ()
  end;
  let worker_specs =
    Option.map
      (fun spec ->
        match Remy_dist.Coordinator.specs_of_string spec with
        | Ok specs -> specs
        | Error e ->
          Printf.eprintf "error: %s\n" e;
          exit 2)
      workers
  in
  let manifest_path =
    match manifest with Some p -> p | None -> output ^ ".manifest.json"
  in
  let dist_extras =
    match worker_specs with
    | None -> []
    | Some specs ->
      [
        ("dist_workers", Remy_obs.Record.Int (List.length specs));
        ( "dist_mode",
          Remy_obs.Record.Str
            (match specs with
            | Remy_dist.Coordinator.Spawn _ :: _ -> "spawn"
            | _ -> "socket") );
      ]
  in
  let manifest0 =
    Remy_obs.Manifest.make ~tool:"remy_train"
      ~config_fingerprint:(Optimizer.config_fingerprint config) ~seed
      ~extras:dist_extras ()
  in
  let write_manifest m =
    try Remy_obs.Manifest.write ~path:manifest_path m
    with Sys_error msg -> Printf.eprintf "warning: cannot write manifest: %s\n%!" msg
  in
  write_manifest manifest0;
  let finalize_manifest status =
    write_manifest
      (Remy_obs.Manifest.finalize manifest0 ~status
         ~wall_s:(Remy_obs.Clock.now_s () -. t0))
  in
  let rounds_this_run = ref 0 in
  let stop_requested () =
    Atomic.get stop_flag
    || match stop_after with Some n -> !rounds_this_run >= n | None -> false
  in
  let progress ev =
    (* Telemetry is written regardless of --quiet; the flag only
       silences the console narration. *)
    (match (ev, sink) with
    | Optimizer.Epoch_done e, Some s -> Remy_obs.Telemetry.write s e
    | Optimizer.Robustness r, Some s -> Remy_obs.Telemetry.write_robustness s r
    | _ -> ());
    (match ev with Optimizer.Improving _ -> incr rounds_this_run | _ -> ());
    if not quiet then Format.printf "%a@.%!" Optimizer.pp_event ev
  in
  (* --verify: run the static analyzer over the live tree at every round
     boundary (the same consistent point where checkpoints are taken).
     Each check writes a table_verified telemetry event, which is not
     narrated ([Telemetry.pp_robustness] only names it); an unsound
     table is reported immediately and fails the run with exit 4 after
     the final table is still written out for inspection. *)
  let verify_failures = ref 0 in
  let verify_round ~rounds tree =
    let rep = Remy_analysis.Verify.table tree in
    let sound = Remy_analysis.Verify.sound rep in
    Option.iter
      (fun s ->
        Remy_obs.Telemetry.write_robustness s
          (Remy_obs.Telemetry.Table_verified
             {
               rounds;
               rules = rep.Remy_analysis.Verify.live;
               sound;
               problems = List.length rep.Remy_analysis.Verify.problems;
               window_hi = rep.Remy_analysis.Verify.window_hi;
             }))
      sink;
    if not sound then begin
      incr verify_failures;
      Format.eprintf "after round %d the table is UNSOUND:@.%a@.%!" rounds
        Remy_analysis.Verify.pp rep
    end
  in
  (* Distributed mode: spawn/connect the workers up front; design skips
     its in-process pool when handed a backend.  Worker events reach the
     telemetry and the narration through [progress], as the optimizer's
     own do. *)
  let dist_event ev = progress (Optimizer.Robustness (Remy_obs.Telemetry.Worker ev)) in
  let coord =
    Option.map
      (fun specs ->
        try
          Remy_dist.Coordinator.create ~on_event:dist_event
            ?timeout_s:worker_timeout ?chaos_kill_after:chaos_kill_worker
            ~params:(Optimizer.eval_params config)
            ~config_hash:(Optimizer.config_fingerprint config) ~workers:specs ()
        with Remy_dist.Coordinator.Dist_error e ->
          Printf.eprintf "error: distributed setup failed: %s\n" e;
          exit 3)
      worker_specs
  in
  let backend =
    Option.map (fun c -> Remy_dist.Coordinator.backend c ~incremental:true) coord
  in
  (* A run that cannot go on closes its telemetry, marks its manifest
     failed and names the checkpoint it can resume from. *)
  let fail msg =
    Option.iter Remy_obs.Sink.close sink;
    finalize_manifest "failed";
    Printf.eprintf "error: %s\n" msg;
    Option.iter
      (fun dir ->
        Printf.eprintf "the last round-boundary checkpoint is intact: %s\n"
          (Checkpoint.file ~dir))
      checkpoint_dir;
    exit 3
  in
  install_signal_handlers ();
  if not quiet then
    Format.printf "designing RemyCC for model [%a], objective %a@.%!" Net_model.pp
      model Objective.pp objective;
  let report =
    try
      Remy_obs.Profiler.span "remy_train" @@ fun () ->
      Optimizer.design ?backend ~progress ?checkpoint ?resume:snapshot
        ~stop_requested
        ?on_round:(if verify then Some verify_round else None)
        ~now0:t0 config
    with
    | Remy_dist.Coordinator.Dist_error msg ->
      Option.iter Remy_dist.Coordinator.shutdown coord;
      fail ("distributed run failed: " ^ msg)
    | (Par.Task_failed _ | Par.Stalled _) as e ->
      (* A stalled pool's wedged worker domain cannot be joined; [fail]
         exits without waiting for it. *)
      fail (Printexc.to_string e)
  in
  Option.iter Remy_dist.Coordinator.shutdown coord;
  Rule_tree.save output report.Optimizer.tree;
  Option.iter Remy_obs.Sink.close sink;
  Printf.printf
    "wrote %s: %d rules, %d epochs, %d improvements, %d subdivisions, %d \
     evaluations, final score %.4f, %.1f s\n\
     %!"
    output
    (Rule_tree.num_rules report.Optimizer.tree)
    report.Optimizer.epochs report.Optimizer.improvements
    report.Optimizer.subdivisions report.Optimizer.evaluations
    report.Optimizer.final_score
    (Remy_obs.Clock.now_s () -. t0);
  (let sims = report.Optimizer.spec_sims and skips = report.Optimizer.spec_skips in
   if sims + skips > 0 then
     Printf.printf
       "incremental cache: %d specimen sims, %d skipped (%.0f%% hit rate)\n%!" sims
       skips
       (100. *. float_of_int skips /. float_of_int (sims + skips)));
  (match telemetry with
  | Some path ->
    Printf.printf "wrote telemetry (%d epoch records) to %s\n%!"
      report.Optimizer.epochs path
  | None -> ());
  finalize_manifest
    (if report.Optimizer.interrupted then "interrupted" else "completed");
  (match profile with
  | Some path -> (
    try
      Remy_obs.Profiler.write_files path (Remy_obs.Profiler.snapshot ());
      Printf.printf "wrote profile: %s (collapsed stacks), %s.jsonl (span rows)\n%!"
        path path
    with Sys_error msg -> Printf.eprintf "warning: cannot write profile: %s\n%!" msg)
  | None -> ());
  if report.Optimizer.interrupted then (
    match checkpoint_dir with
    | Some dir ->
      Printf.printf
        "interrupted after %d rounds; resume with: remy_train --checkpoint %s \
         --resume [same flags]\n\
         %!"
        report.Optimizer.rounds dir
    | None ->
      Printf.printf "interrupted after %d rounds (no --checkpoint: progress lost)\n%!"
        report.Optimizer.rounds);
  if verify then begin
    (* Final check on the exact tree that was written out (the round
       hook saw it at the last boundary; this covers the post-loop
       state too). *)
    let rep = Remy_analysis.Verify.table report.Optimizer.tree in
    if Remy_analysis.Verify.sound rep && !verify_failures = 0 then
      Printf.printf
        "verified: %d rules partition memory space, every action in bounds, \
         every reachable window <= %g\n\
         %!"
        rep.Remy_analysis.Verify.live rep.Remy_analysis.Verify.window_hi
    else begin
      if not (Remy_analysis.Verify.sound rep) then
        Format.eprintf "final table is UNSOUND:@.%a@.%!" Remy_analysis.Verify.pp
          rep;
      Printf.eprintf
        "error: static verification failed (%d unsound round(s)); table kept \
         at %s for inspection\n\
         %!"
        (!verify_failures + if Remy_analysis.Verify.sound rep then 0 else 1)
        output;
      exit 4
    end
  end

let cmd =
  let model =
    Arg.(value & opt model_conv `General & info [ "model" ] ~doc:"Network model.")
  in
  let topology =
    Arg.(
      value
      & opt (some string) None
      & info [ "topology" ]
          ~doc:
            "Evaluate design specimens on a named multi-bottleneck topology \
             (parking-lot, fat-tree-pod, incast) instead of the dumbbell; \
             the drawn link speed scales the bottleneck tier and the drawn \
             RTT the total propagation.")
  in
  let objective =
    Arg.(
      value
      & opt objective_conv `Proportional
      & info [ "objective" ] ~doc:"Objective: proportional or mpd (-1/throughput).")
  in
  let delta =
    Arg.(value & opt float 1.0 & info [ "delta" ] ~doc:"Delay weight delta.")
  in
  let epochs =
    Arg.(value & opt int 16 & info [ "epochs" ] ~doc:"Global epoch budget.")
  in
  let specimens =
    Arg.(value & opt int 16 & info [ "specimens" ] ~doc:"Specimens per step.")
  in
  let multipliers =
    Arg.(
      value
      & opt (list float) [ 1.; 8. ]
      & info [ "multipliers" ] ~doc:"Candidate increment magnitude ladder.")
  in
  let rounds =
    Arg.(
      value & opt int 40
      & info [ "rounds" ] ~doc:"Max improvement rounds per rule per visit.")
  in
  let prune =
    Arg.(
      value & flag
      & info [ "prune" ]
          ~doc:"Collapse subdivisions whose children's actions still agree.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ]
          ~doc:
            "Domains for the evaluation pool, counting the submitting one \
             (default: the core count).")
  in
  let wall =
    Arg.(value & opt float 600. & info [ "wall-budget" ] ~doc:"Wall budget, s.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Root seed.") in
  let sim_duration =
    Arg.(
      value
      & opt (some float) None
      & info [ "sim-duration" ] ~doc:"Seconds simulated per specimen.")
  in
  let task_retries =
    Arg.(
      value & opt int 1
      & info [ "task-retries" ]
          ~doc:
            "Re-run a failing evaluation task up to $(docv) times before \
             aborting the run (tasks are deterministic, so retries cannot \
             change results)."
          ~docv:"N")
  in
  let stall_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "stall-timeout" ]
          ~doc:
            "Watchdog: abort (leaving the last checkpoint intact) if no \
             evaluation task completes for $(docv) seconds."
          ~docv:"SECONDS")
  in
  let checkpoint_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ]
          ~doc:
            "Write crash-safe snapshots to $(docv)/checkpoint.sexp (atomic \
             temp-file + fsync + rename) after improvement rounds; resume \
             later with --resume."
          ~docv:"DIR")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the checkpoint in --checkpoint DIR.  The run \
             continues bit-identically to one that was never interrupted; \
             refuses (exit 2) if the checkpoint is corrupted, from another \
             version, or from a different model/objective/seed configuration.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 1
      & info [ "checkpoint-every" ]
          ~doc:
            "Checkpoint every $(docv) improvement rounds (epoch boundaries \
             and interrupts always checkpoint)."
          ~docv:"ROUNDS")
  in
  let stop_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "stop-after-rounds" ]
          ~doc:
            "Stop (as if interrupted) after $(docv) improvement rounds in \
             this invocation — deterministic stand-in for SIGINT, used by \
             resume tests."
          ~docv:"N")
  in
  let output =
    Arg.(value & opt string "remycc.rules" & info [ "o"; "output" ] ~doc:"Output file.")
  in
  let telemetry =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ]
          ~doc:
            "Write one structured JSONL record per design epoch to $(docv) \
             (written even under --quiet).  Crash-safe runs add \
             checkpoint_written / resumed_from / worker_retry event records; \
             resumed runs append."
          ~docv:"PATH")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress console progress.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Statically verify the table at every improvement-round boundary \
             (partition proof, action bounds, bounded-window abstract \
             interpretation).  Each check emits a table_verified telemetry \
             event; an unsound table fails the run with exit 4.")
  in
  let profile =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ]
          ~doc:
            "Enable the span profiler and runtime histograms; at exit write \
             collapsed stacks (flamegraph.pl input) to $(docv) and one JSONL \
             row per span to $(docv).jsonl.  Purely observational: results \
             are bit-identical with or without."
          ~docv:"OUT")
  in
  let manifest =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ]
          ~doc:
            "Run-manifest path (default: <output>.manifest.json).  Written at \
             start (status running) and rewritten at exit with final \
             counters and histogram summaries."
          ~docv:"PATH")
  in
  let workers =
    Arg.(
      value
      & opt (some string) None
      & info [ "workers" ]
          ~doc:
            "Distribute evaluation across worker processes: an integer $(docv) \
             spawns that many local workers (this binary, re-executed); a \
             comma-separated host:port list connects to running \
             $(b,remy_worker) instances.  Results are bit-identical to a \
             single-process run — the coordinator owns all training state and \
             reduces scores in fixed task order."
          ~docv:"SPEC")
  in
  let worker_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "worker-timeout" ]
          ~doc:
            "Declare an unresponsive worker lost (its in-flight tasks are \
             reissued) after $(docv) seconds of silence (default 120)."
          ~docv:"SECONDS")
  in
  let chaos_kill_worker =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-kill-worker" ]
          ~doc:
            "Fault-injection hook: SIGKILL one spawned worker right after the \
             $(docv)-th task dispatch, exercising the reissue path (the run \
             must still produce bit-identical results).  Used by CI."
          ~docv:"N")
  in
  Cmd.v
    (Cmd.info "remy_train" ~doc:"Design a RemyCC congestion-control algorithm")
    Term.(
      const run $ model $ topology $ objective $ delta $ epochs $ specimens
      $ multipliers
      $ rounds $ prune $ domains $ wall $ seed $ sim_duration
      $ task_retries $ stall_timeout $ checkpoint_dir $ resume $ checkpoint_every
      $ stop_after $ output $ telemetry $ quiet $ verify $ profile
      $ manifest $ workers $ worker_timeout $ chaos_kill_worker)

let () =
  (* --workers N re-execs this binary as each local worker. *)
  Remy_dist.Worker.serve_if_child ();
  exit (Cmd.eval cmd)
