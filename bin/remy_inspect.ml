(* remy_inspect: inspect RemyCC artifacts.

   Default command: pretty-print a trained rule table, optionally
   exercising it on design-range specimens to show which rules actually
   fire and where the memory lives.  The verify subcommand runs the
   static analyzer (partition proof, action bounds, bounded-window
   abstract interpretation) and exits nonzero on an unsound table.  The
   trace-summary subcommand aggregates an event trace written by
   remy_run --trace.

     remy_inspect data/delta1.rules
     remy_inspect data/delta1.rules --exercise
     remy_inspect verify data/delta1.rules --json verdict.jsonl
     remy_inspect trace-summary out.jsonl *)

open Cmdliner
open Remy

(* Simulate the table on a fixed draw of design-range specimens and
   return the per-rule usage tally (shared by --exercise reporting and
   verify's never-fired listing). *)
let exercise_tally tree =
  let model = Net_model.general ~sim_duration:8.0 () in
  let rng = Remy_util.Prng.create 4242 in
  let specimens = Net_model.draw_many model rng 8 in
  let tally = Tally.create ~capacity:(Rule_tree.capacity tree) ~seed:4242 () in
  let result =
    Evaluator.score ~tally ~domains:1
      ~objective:(Objective.proportional ~delta:1.0)
      ~queue_capacity:model.Net_model.queue_capacity
      ~duration:model.Net_model.sim_duration tree specimens
  in
  (tally, result)

let exercise tree =
  let tally, result = exercise_tally tree in
  let total =
    List.fold_left (fun acc id -> acc + Tally.count tally id) 0
      (Rule_tree.live_ids tree)
  in
  Format.printf
    "@.usage over 8 design-range specimens (mean objective %.4f, %d lookups):@."
    result.Evaluator.mean_score total;
  Format.printf "%6s %10s %8s   %s@." "rule" "uses" "share" "median memory seen";
  List.iter
    (fun id ->
      let uses = Tally.count tally id in
      let share =
        if total > 0 then 100. *. float_of_int uses /. float_of_int total else 0.
      in
      let median =
        match Tally.median_memory tally id with
        | Some m -> Format.asprintf "%a" Memory.pp m
        | None -> "-"
      in
      Format.printf "%6d %10d %7.2f%%   %s@." id uses share median)
    (List.sort
       (fun a b -> Int.compare (Tally.count tally b) (Tally.count tally a))
       (Rule_tree.live_ids tree))

let run file do_exercise =
  (* Validated load: domain coverage, finite in-bounds actions — a bad
     table fails fast here naming the offending rule. *)
  match Rule_tree.load_validated file with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Ok tree ->
    Format.printf "%a@." Rule_tree.pp tree;
    if do_exercise then exercise tree

let run_verify file do_exercise json =
  (* Plain load, not load_validated: verify's whole point is to analyze
     suspect tables and name their flaws, so validation failures must
     come back as a report, not a load error.  (Unparseable files still
     fail here.) *)
  match Rule_tree.load file with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Ok tree ->
    let tally = if do_exercise then Some (fst (exercise_tally tree)) else None in
    let report = Remy_analysis.Verify.table ?tally tree in
    Format.printf "%s@.%a@." file Remy_analysis.Verify.pp report;
    (match json with
    | None -> ()
    | Some path ->
      (try
         let sink = Remy_obs.Sink.to_file path in
         Remy_obs.Sink.emit sink
           (("table", Remy_obs.Record.Str file)
           :: Remy_analysis.Verify.to_record report);
         Remy_obs.Sink.close sink
       with Sys_error msg ->
         Printf.eprintf "error: cannot write verdict: %s\n" msg;
         exit 1));
    if not (Remy_analysis.Verify.sound report) then exit 1

let run_trace_summary file =
  match Remy_obs.Trace_summary.of_file file with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Ok summary -> Format.printf "%a@." Remy_obs.Trace_summary.pp summary

let run_robustness file link rtt_ms senders duration replications seed delta
    idle_restart json =
  match Rule_tree.load_validated file with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Ok tree ->
    let scheme =
      Remy_scenarios.Schemes.remy ?idle_restart_s:idle_restart
        ~name:(Filename.basename file) tree
    in
    let report =
      (* A bad network or sweep is refused by the library, naming the
         field, before anything is printed. *)
      try
        Remy_scenarios.Robustness.run
          ~objective:(Objective.proportional ~delta)
          (Remy_scenarios.Scenario.make
             ~service:(Remy_cc.Topology.Rate_mbps link)
             ~n:senders ~rtt:(rtt_ms /. 1e3)
             ~workload:(Remy_sim.Workload.by_bytes ~mean_bytes:100e3 ~mean_off:0.5)
             ~duration ~replications ~base_seed:seed ())
          scheme
      with Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    in
    Format.printf "%a@." Remy_scenarios.Robustness.pp report;
    (match json with
    | None -> ()
    | Some path -> (
      try
        let sink = Remy_obs.Sink.to_file path in
        List.iter
          (Remy_obs.Sink.emit sink)
          (Remy_scenarios.Robustness.to_records report);
        Remy_obs.Sink.close sink;
        Format.printf "wrote robustness records to %s@." path
      with Sys_error msg ->
        Printf.eprintf "error: cannot write records: %s\n" msg;
        exit 1))

let table_term =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Rule table.")
  in
  let ex =
    Arg.(
      value & flag
      & info [ "exercise" ] ~doc:"Simulate the table and report per-rule usage.")
  in
  Term.(const run $ file $ ex)

let table_cmd =
  Cmd.v (Cmd.info "table" ~doc:"Dump a RemyCC rule table (the default)") table_term

let verify_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Rule table.")
  in
  let ex =
    Arg.(
      value & flag
      & info [ "exercise" ]
          ~doc:
            "Also simulate the table on design-range specimens and report \
             live rules that never fired.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ]
          ~doc:"Append the machine-readable verdict record to $(docv) (JSONL)."
          ~docv:"OUT")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Statically verify a rule table: prove the rules partition the \
          memory domain (exhaustive coverage, pairwise disjointness), check \
          every action's bounds, and bound every reachable congestion window \
          by abstract interpretation.  Exits 1 if the table is unsound.")
    Term.(const run_verify $ file $ ex $ json)

let trace_summary_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Event trace (.jsonl or .csv) from remy_run --trace.")
  in
  Cmd.v
    (Cmd.info "trace-summary"
       ~doc:"Aggregate an event trace into per-queue drop/mark/occupancy stats")
    Term.(const run_trace_summary $ file)

let robustness_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Rule table.")
  in
  let link = Arg.(value & opt float 15. & info [ "link" ] ~doc:"Link speed, Mbps.") in
  let rtt = Arg.(value & opt float 150. & info [ "rtt" ] ~doc:"RTT, ms.") in
  let senders = Arg.(value & opt int 8 & info [ "senders" ] ~doc:"Sender count.") in
  let duration =
    Arg.(value & opt float 30. & info [ "duration" ] ~doc:"Seconds per run.")
  in
  let replications =
    Arg.(value & opt int 4 & info [ "replications" ] ~doc:"Seeds per cell.")
  in
  let seed = Arg.(value & opt int 7000 & info [ "seed" ] ~doc:"Base seed.") in
  let delta =
    Arg.(value & opt float 1. & info [ "delta" ] ~doc:"Objective delay weight.")
  in
  let idle_restart =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-restart" ]
          ~doc:
            "Enable the sender's idle-restart graceful degradation (reset \
             memory EWMAs after an ACK gap of $(docv) seconds) — rerun the \
             report with and without to quantify its effect."
          ~docv:"SECONDS")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ]
          ~doc:"Also write one flat record per sweep row to $(docv) (JSONL)."
          ~docv:"OUT")
  in
  Cmd.v
    (Cmd.info "robustness-report"
       ~doc:
         "Sweep a rule table across adversarial fault axes (outage, bursty \
          loss, reordering, duplication, corruption, rate cut) at three \
          intensities each and report the objective-score degradation \
          against the clean baseline — Fig. 6's design-range question asked \
          of faults, machine-readable.")
    Term.(
      const run_robustness $ file $ link $ rtt $ senders $ duration
      $ replications $ seed $ delta $ idle_restart $ json)

let cmd =
  Cmd.group ~default:table_term
    (Cmd.info "remy_inspect" ~doc:"Inspect RemyCC rule tables and event traces")
    [ table_cmd; verify_cmd; trace_summary_cmd; robustness_cmd ]

(* Keep the historical `remy_inspect FILE [--exercise]` spelling working:
   cmdliner groups dispatch on the first positional argument, so when it
   is not a known subcommand, route it to `table` explicitly. *)
let argv =
  let argv = Sys.argv in
  let is_command a =
    a = "table" || a = "verify" || a = "trace-summary" || a = "robustness-report"
  in
  let first_positional =
    Array.find_opt (fun a -> String.length a > 0 && a.[0] <> '-')
      (Array.sub argv 1 (Array.length argv - 1))
  in
  match first_positional with
  | Some a when not (is_command a) ->
    Array.append [| argv.(0); "table" |] (Array.sub argv 1 (Array.length argv - 1))
  | _ -> argv

let () = exit (Cmd.eval ~argv cmd)
