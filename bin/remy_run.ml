(* remy_run: simulate one scenario — the dumbbell or a named topology —
   across schemes and print per-scheme medians.

   Examples:
     remy_run --link 15 --rtt 150 --senders 8 --schemes newreno,vegas,remy:delta1
     remy_run --workload icsi --qdisc sfqcodel --loss 0.01
     remy_run --link-trace data/verizon-lte.trace --senders 4
     remy_run --topology parking-lot --schemes cubic,remy:delta1
     remy_run --trace out.jsonl --probe-interval 0.01 --schemes cubic *)

open Cmdliner
open Remy_scenarios
open Remy_sim

(* Load failures exit 1 with the loader's diagnostic instead of an
   uncaught exception backtrace.  Loaded tables go through the static
   analyzer before any simulation starts: an unsound table (coverage
   gap, overlapping rules, out-of-bounds action) is refused with the
   full report unless --force. *)
let resolve_scheme ~force ?idle_restart_s name =
  match String.index_opt name ':' with
  | Some i when String.sub name 0 i = "remy" ->
    let table = String.sub name (i + 1) (String.length name - i - 1) in
    (match Remy.Rule_tree.load (Tables.path table) with
    | Error msg ->
      Printf.eprintf "error: cannot load table %s: %s\n" table msg;
      exit 1
    | Ok tree ->
      let report = Remy_analysis.Verify.table tree in
      if not (Remy_analysis.Verify.sound report) then
        if force then
          Format.eprintf
            "warning: table %s is UNSOUND; simulating anyway under --force@.%a@."
            table Remy_analysis.Verify.pp report
        else begin
          Format.eprintf
            "error: table %s failed static verification:@.%a@.pass --force to \
             simulate it anyway@."
            table Remy_analysis.Verify.pp report;
          exit 1
        end;
      Schemes.remy ?idle_restart_s ~name:("Remy " ^ table) tree)
  | _ -> (
    match Schemes.by_name name with
    | Some s -> s
    | None ->
      Printf.eprintf "error: unknown scheme %S\n" name;
      exit 1)

let run link rtt_ms senders workload_kind mean_kb mean_on mean_off duration
    replications seed qdisc_kind capacity loss schemes topology link_trace
    trace_out probe_interval force metrics manifest faults_arg idle_restart_s =
  let t0 = Remy_obs.Clock.now_s () in
  let faults =
    match faults_arg with
    | None -> Remy_faults.Spec.empty
    | Some s -> (
      match Remy_faults.Spec.of_arg s with
      | Ok f -> f
      | Error msg ->
        Printf.eprintf "error: bad --faults spec: %s\n" msg;
        exit 1)
  in
  if metrics then Remy_obs.Metrics.enable ();
  let manifest0 = Remy_obs.Manifest.make ~tool:"remy_run" ~seed () in
  let write_manifest m =
    match manifest with
    | None -> ()
    | Some path -> (
      try Remy_obs.Manifest.write ~path m
      with Sys_error msg ->
        Printf.eprintf "warning: cannot write manifest: %s\n%!" msg)
  in
  write_manifest manifest0;
  let tracer =
    match trace_out with
    | None -> Remy_obs.Trace.off
    | Some path -> (
      try
        Remy_obs.Trace.make
          (Remy_obs.Sink.to_file ~columns:Remy_obs.Trace.columns path)
      with Sys_error msg ->
        Printf.eprintf "error: cannot open trace output: %s\n" msg;
        exit 1)
  in
  let service =
    match link_trace with
    | None -> Remy_cc.Topology.Rate_mbps link
    | Some path -> (
      match Cell_trace.load path with
      | Ok t -> Remy_cc.Topology.Trace t
      | Error msg ->
        Printf.eprintf "error: cannot load trace %s: %s\n" path msg;
        exit 1)
  in
  let workload =
    match workload_kind with
    | `Bytes -> Workload.by_bytes ~mean_bytes:(mean_kb *. 1e3) ~mean_off
    | `Time -> Workload.by_time ~mean_on ~mean_off
    | `Icsi -> Workload.icsi ~mean_off
    | `Saturating -> Workload.saturating
    | `Incast -> Workload.incast ~burst_bytes:(mean_kb *. 1e3) ~period:mean_off
  in
  let start =
    match workload_kind with
    | `Saturating | `Incast -> `Immediate
    | `Bytes | `Time | `Icsi -> `Off_draw
  in
  (match topology with
  | Some _ when link_trace <> None ->
    Printf.eprintf "error: --link-trace applies to the dumbbell only\n";
    exit 1
  | Some _ when loss <> 0. ->
    Printf.eprintf "error: --loss applies to the dumbbell only\n";
    exit 1
  | _ when workload_kind <> `Time && mean_on <> 1. ->
    Printf.eprintf "error: --mean-on applies to --workload time only\n";
    exit 1
  | _ -> ());
  let scenario =
    let rtt = rtt_ms /. 1e3 in
    try
      match topology with
      | None ->
        Scenario.make ~capacity ~loss ~service ~n:senders ~rtt ~workload ~start
          ~duration ~replications ~base_seed:seed ()
      | Some name ->
        Scenario.topology ~capacity ~replications ~base_seed:seed ~start ~name
          ~n:senders ~link_mbps:link ~rtt ~workload ~duration ()
    with Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  in
  let schemes = List.map (resolve_scheme ~force ?idle_restart_s) schemes in
  List.iter
    (fun scheme ->
      if Remy_obs.Trace.is_on tracer then
        Remy_obs.Trace.note tracer ~now:0.
          [ ("scheme", Remy_obs.Record.Str scheme.Schemes.name) ];
      (* Override the scheme's qdisc pairing when asked. *)
      let scheme =
        match qdisc_kind with
        | None -> scheme
        | Some q -> { scheme with Schemes.qdisc = q }
      in
      (* [Topology.run] and the topology builders check the network
         itself (rates, delays, sender count, duration) and name what is
         wrong. *)
      let s =
        try Scenario.run_scheme ~tracer ?probe_interval ~faults scenario scheme
        with Invalid_argument msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
      in
      if loss > 0. then
        Format.printf "%-16s %8.3f Mbps %10.2f ms   (with %.2f%% loss)@."
          s.Scenario.scheme s.Scenario.median_tput s.Scenario.median_qdelay
          (loss *. 100.)
      else Format.printf "%a@." Scenario.pp_summary_row s)
    schemes;
  Remy_obs.Trace.close tracer;
  (match trace_out with
  | Some path -> Format.printf "wrote event trace to %s@." path
  | None -> ());
  if metrics then begin
    (* Merged across every simulation this invocation ran. *)
    List.iter
      (fun (name, h) ->
        if Remy_obs.Histogram.count h > 0 then begin
          let s = Remy_obs.Histogram.summarize h in
          Format.printf
            "%-18s n=%-9d p50 %.4gs  p90 %.4gs  p99 %.4gs  p999 %.4gs@." name
            s.Remy_obs.Histogram.n s.Remy_obs.Histogram.p50
            s.Remy_obs.Histogram.p90 s.Remy_obs.Histogram.p99
            s.Remy_obs.Histogram.p999
        end)
      (Remy_obs.Metrics.all_merged ())
  end;
  write_manifest
    (Remy_obs.Manifest.finalize manifest0 ~status:"completed"
       ~wall_s:(Remy_obs.Clock.now_s () -. t0))

let qdisc_conv =
  Arg.enum
    [
      ("droptail", Schemes.Q_droptail);
      ("sfqcodel", Schemes.Q_sfqcodel);
      ("dctcp-red", Schemes.Q_dctcp_red);
      ("xcp", Schemes.Q_xcp);
    ]

let workload_conv =
  Arg.enum
    [
      ("bytes", `Bytes);
      ("time", `Time);
      ("icsi", `Icsi);
      ("saturating", `Saturating);
      ("incast", `Incast);
    ]

let cmd =
  let link = Arg.(value & opt float 15. & info [ "link" ] ~doc:"Link speed, Mbps.") in
  let rtt = Arg.(value & opt float 150. & info [ "rtt" ] ~doc:"RTT, ms.") in
  let senders = Arg.(value & opt int 8 & info [ "senders" ] ~doc:"Sender count.") in
  let workload =
    Arg.(
      value & opt workload_conv `Bytes
      & info [ "workload" ]
          ~doc:
            "bytes | time | icsi | saturating | incast (synchronized \
             --mean-kb bursts every --mean-off seconds).")
  in
  let mean_kb =
    Arg.(value & opt float 100. & info [ "mean-kb" ] ~doc:"Mean transfer, KB.")
  in
  let mean_on =
    Arg.(
      value & opt float 1.
      & info [ "mean-on" ] ~doc:"Mean on time, s (--workload time only).")
  in
  let mean_off =
    Arg.(value & opt float 0.5 & info [ "mean-off" ] ~doc:"Mean off time, s.")
  in
  let duration = Arg.(value & opt float 60. & info [ "duration" ] ~doc:"Seconds.") in
  let replications =
    Arg.(value & opt int 8 & info [ "replications" ] ~doc:"Replications.")
  in
  let seed = Arg.(value & opt int 7000 & info [ "seed" ] ~doc:"Base seed.") in
  let qdisc =
    Arg.(
      value
      & opt (some qdisc_conv) None
      & info [ "qdisc" ] ~doc:"Override the scheme's queue discipline.")
  in
  let capacity =
    Arg.(value & opt int 1000 & info [ "capacity" ] ~doc:"Buffer, packets.")
  in
  let loss =
    Arg.(value & opt float 0. & info [ "loss" ] ~doc:"Stochastic loss rate [0,1).")
  in
  let schemes =
    Arg.(
      value
      & opt (list string) [ "newreno"; "vegas"; "cubic"; "compound" ]
      & info [ "schemes" ] ~doc:"Comma-separated schemes (remy:<table> for RemyCCs).")
  in
  let topology =
    Arg.(
      value
      & opt (some string) None
      & info [ "topology" ]
          ~doc:
            "Run a named multi-bottleneck topology (parking-lot, \
             fat-tree-pod, incast) instead of the dumbbell.  --link scales \
             the bottleneck tier, --rtt the total propagation; the \
             scheme's qdisc pairing is replaced by per-link DropTail \
             buffers of --capacity packets.")
  in
  let link_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "link-trace" ] ~doc:"Cellular trace file (overrides --link).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ]
          ~doc:
            "Write a packet-level event trace to $(docv) (.csv for CSV, \
             anything else for JSONL).  Replication 0 of each scheme is \
             traced."
          ~docv:"OUT")
  in
  let probe_interval =
    Arg.(
      value
      & opt (some float) None
      & info [ "probe-interval" ]
          ~doc:
            "With --trace, also sample queue depth and per-flow \
             cwnd/pacing/srtt every $(docv) simulated seconds."
          ~docv:"SECONDS")
  in
  let force =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:
            "Simulate RemyCC tables even when the static analyzer finds them \
             unsound (coverage gap, overlapping rules, out-of-bounds action).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Record runtime histograms (simulated queueing delay, queue \
             sojourn) and print their percentiles after the runs.  Purely \
             observational: medians are bit-identical with or without.")
  in
  let manifest =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ]
          ~doc:
            "Write a run manifest to $(docv) at start (status running) and \
             rewrite it at exit with final counters and histogram summaries."
          ~docv:"PATH")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ]
          ~doc:
            "Install a deterministic fault schedule on the bottleneck (or, \
             with linkN/ prefixes, on any link of a --topology run): a \
             preset name ($(b,flaky), $(b,bursty), $(b,jitter), \
             $(b,degrade), $(b,blackout)) or a raw spec such as \
             'outage:10+2+30;ge:0.01,0.25,0.5'.  Fault draws are seeded \
             from the run seed, so two identical invocations produce \
             byte-identical traces."
          ~docv:"SPEC")
  in
  let idle_restart =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-restart" ]
          ~doc:
            "RemyCC graceful degradation: after an ACK gap longer than \
             $(docv) seconds (e.g. a link outage), reset the sender's \
             memory EWMAs instead of feeding them one giant interarrival \
             sample.  Applies to remy:* schemes only."
          ~docv:"SECONDS")
  in
  Cmd.v
    (Cmd.info "remy_run"
       ~doc:"Run a dumbbell or named-topology scenario across schemes")
    Term.(
      const run $ link $ rtt $ senders $ workload $ mean_kb $ mean_on $ mean_off
      $ duration $ replications $ seed $ qdisc $ capacity $ loss $ schemes
      $ topology $ link_trace $ trace_out $ probe_interval $ force $ metrics
      $ manifest $ faults $ idle_restart)

let () = exit (Cmd.eval cmd)
