(* Integration tests of the experiments: every figure runs end-to-end
   at micro scale and prints from its rows, the rows survive a
   round-trip through the JSONL sink that `bench/main.exe --out` uses,
   and Fig. 4's medians can be read as values.  These exercise the same
   code paths as `dune exec bench/main.exe`. *)

open Remy_scenarios
module Record = Remy_obs.Record

let null_fmt =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let micro_opts () =
  { Figures.replications = 1; duration = 4.; base_seed = 12345; progress = ignore }

(* Every experiment must have a pre-trained table available, otherwise
   the fallback trainer would dominate test time; skip the experiment
   (not fail) if its tables are absent, since `dune runtest` must work
   from a fresh checkout. *)
let tables_available specs =
  List.for_all (fun spec -> Result.is_ok (Tables.load spec.Tables.table)) specs

let deltas = [ Tables.delta01; Tables.delta1; Tables.delta10 ]

(* The tables each experiment reads. *)
let needs =
  [
    ("fig3", []);
    ("fig4", deltas);
    ("fig5", deltas);
    ("fig6", [ Tables.delta1; Tables.onex ]);
    ("fig7", deltas);
    ("fig8", deltas);
    ("fig9", deltas);
    ("fig10", deltas);
    ("tbl_datacenter", [ Tables.datacenter ]);
    ("tbl_competing", [ Tables.coexist ]);
    ("fig11", [ Tables.onex; Tables.tenx ]);
    ("ablation_loss", [ Tables.delta1 ]);
    ("ablation_signals", [ Tables.delta1 ]);
  ]

let available id = tables_available (List.assoc id needs)

(* Each experiment's rows at [micro_opts], computed once per process:
   the smoke, artifact and golden tests all read the same run. *)
let rows =
  let memo = Hashtbl.create 13 in
  fun id ->
    match Hashtbl.find_opt memo id with
    | Some rows -> rows
    | None ->
      let rows = (List.assoc id Figures.all).Figures.run (micro_opts ()) in
      Hashtbl.add memo id rows;
      rows

let tag r = Option.bind (Record.find "row" r) Record.to_str
let num key r = Option.get (Option.bind (Record.find key r) Record.to_float)

let smoke id =
  Alcotest.test_case id `Slow (fun () ->
      if available id then begin
        let rows = rows id in
        Alcotest.(check bool) "rows present" true (rows <> []);
        List.iter
          (fun r -> if tag r = None then Alcotest.failf "%s: untagged row" id)
          rows;
        (List.assoc id Figures.all).Figures.print null_fmt rows
      end
      else Printf.eprintf "[skip] %s: tables not trained yet\n" id)

(* What `--out DIR` writes: each figure's rows through [Sink.to_file]
   to DIR/<id>.jsonl, which reads back through [Sink.read_file] as the
   same records (up to the codec's %.12g floats). *)
let test_artifacts_written () =
  let dir = Filename.temp_file "remy_artifacts" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  List.iter
    (fun (id, _) ->
      if available id then begin
        let rows = rows id in
        let path = Filename.concat dir (id ^ ".jsonl") in
        let sink = Remy_obs.Sink.to_file path in
        List.iter (Remy_obs.Sink.emit sink) rows;
        Remy_obs.Sink.close sink;
        match Remy_obs.Sink.read_file path with
        | Error e -> Alcotest.failf "%s: %s" id e
        | Ok back ->
          Alcotest.(check (list string))
            (id ^ " rows read back")
            (List.map Record.to_json rows) (List.map Record.to_json back);
          Sys.remove path
      end)
    Figures.all;
  Sys.rmdir dir

(* Fig. 4's medians, read as values: one row per scheme in order, each
   equal to what [Scenario.run_scheme] gives that scheme on Fig. 4's
   dumbbell. *)
let test_fig4_medians () =
  if available "fig4" then begin
    let opts = micro_opts () in
    let scenario =
      Scenario.make
        ~service:(Remy_cc.Topology.Rate_mbps 15.)
        ~n:8 ~rtt:0.150
        ~workload:(Remy_sim.Workload.by_bytes ~mean_bytes:100e3 ~mean_off:0.5)
        ~duration:opts.Figures.duration ~replications:opts.Figures.replications
        ~base_seed:opts.Figures.base_seed ()
    in
    let schemes = Schemes.fig4_baselines @ List.map (fun s -> Tables.scheme s) deltas in
    let medians = List.filter (fun r -> tag r = Some "medians") (rows "fig4") in
    Alcotest.(check int) "one row per scheme" (List.length schemes) (List.length medians);
    List.iter2
      (fun scheme r ->
        let s = Scenario.run_scheme scenario scheme in
        Alcotest.(check (option string))
          "scheme" (Some s.Scenario.scheme)
          (Option.bind (Record.find "scheme" r) Record.to_str);
        List.iter
          (fun (key, expected) ->
            let got = num key r in
            if not (Float.is_finite got && Float.equal got expected) then
              Alcotest.failf "%s %s: %g, run_scheme gives %g" s.Scenario.scheme key got
                expected)
          [
            ("median_tput_mbps", s.Scenario.median_tput);
            ("median_qdelay_ms", s.Scenario.median_qdelay);
          ])
      schemes medians
  end

let test_experiment_registry_complete () =
  let ids = List.map fst Figures.all in
  List.iter
    (fun expected ->
      if not (List.mem expected ids) then Alcotest.failf "missing %s" expected)
    (List.map fst needs)

let tests =
  [ Alcotest.test_case "registry complete" `Quick test_experiment_registry_complete ]
  @ List.map smoke (List.map fst needs)
  @ [
      Alcotest.test_case "artifacts written" `Slow test_artifacts_written;
      Alcotest.test_case "fig4 medians are values" `Slow test_fig4_medians;
    ]
