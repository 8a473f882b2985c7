open Remy_scenarios
open Remy_sim

let quick_scenario ?(n = 2) () =
  Scenario.make
    ~service:(Remy_cc.Topology.Rate_mbps 15.)
    ~n ~rtt:0.15
    ~workload:(Workload.by_bytes ~mean_bytes:5e4 ~mean_off:0.3)
    ~duration:10. ~replications:3 ()

let contains msg needle =
  let n = String.length msg and m = String.length needle in
  let rec go i = i + m <= n && (String.sub msg i m = needle || go (i + 1)) in
  go 0

let test_registry_names () =
  List.iter
    (fun name ->
      match Schemes.by_name name with
      | Some s -> Alcotest.(check string) "case-insensitive lookup" name s.Schemes.name
      | None -> Alcotest.failf "missing scheme %s" name)
    [ "NewReno"; "Vegas"; "Cubic"; "Compound"; "Cubic/sfqCoDel"; "XCP"; "DCTCP" ];
  Alcotest.(check bool) "unknown scheme" true (Schemes.by_name "bogus" = None)

let test_qdisc_pairings () =
  Alcotest.(check bool) "sfqcodel pairing" true
    (match Schemes.qdisc_spec Schemes.cubic_sfqcodel ~capacity:10 with
    | Remy_cc.Topology.Sfq_codel 10 -> true
    | _ -> false);
  Alcotest.(check bool) "dctcp pairing" true
    (match Schemes.qdisc_spec Schemes.dctcp ~capacity:10 with
    | Remy_cc.Topology.Dctcp_red { capacity = 10; threshold = 65 } -> true
    | _ -> false)

let test_run_scheme_points () =
  let s = Scenario.run_scheme (quick_scenario ()) Schemes.newreno in
  Alcotest.(check string) "scheme name" "NewReno" s.Scenario.scheme;
  (* Up to n senders x replications points; senders that never came on
     are excluded, so just require a sane, non-empty set. *)
  Alcotest.(check bool) "points collected" true (Array.length s.Scenario.points > 0);
  Alcotest.(check bool) "points bounded" true (Array.length s.Scenario.points <= 6);
  Alcotest.(check bool) "median positive" true (s.Scenario.median_tput > 0.);
  Alcotest.(check bool) "ellipse present" true (s.Scenario.ellipse <> None);
  Alcotest.(check int) "per-flow rows" 3 (Array.length s.Scenario.flows)

let test_run_deterministic () =
  let sc = quick_scenario () in
  let a = Scenario.run_scheme sc Schemes.vegas in
  let b = Scenario.run_scheme sc Schemes.vegas in
  Alcotest.(check (float 0.)) "same medians" a.Scenario.median_tput b.Scenario.median_tput

let test_remy_scheme_runs () =
  (* A hand-built two-rule table, no training required. *)
  let tree = Remy.Rule_tree.create () in
  Remy.Rule_tree.set_action tree 0
    { Remy.Action.multiple = 0.8; increment = 5.; intersend_ms = 1. };
  let scheme = Schemes.remy ~name:"Remy test" tree in
  let s = Scenario.run_scheme (quick_scenario ()) scheme in
  Alcotest.(check bool) "remycc moves data" true (s.Scenario.median_tput > 0.1)

let test_tables_path_shape () =
  let p = Tables.path "delta1" in
  Alcotest.(check bool) "ends with delta1.rules" true
    (Filename.check_suffix p "delta1.rules")

let test_lookup_creates_nothing () =
  (* From a directory with no data/ above it and no REMY_DATA_DIR, a
     load fails naming the path it tried, and leaves no data/ behind. *)
  let cwd = Sys.getcwd () in
  let saved = Sys.getenv_opt "REMY_DATA_DIR" in
  let tmp = Filename.temp_dir "remy-tables" "" in
  Unix.putenv "REMY_DATA_DIR" "";
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Unix.putenv "REMY_DATA_DIR" (Option.value saved ~default:"");
      Sys.rmdir tmp)
    (fun () ->
      Sys.chdir tmp;
      let p = Tables.path "delta1" in
      (match Tables.load "delta1" with
      | Ok _ -> Alcotest.failf "loaded %s from an empty directory" p
      | Error msg -> Alcotest.(check bool) ("names the path: " ^ msg) true (contains msg p));
      Alcotest.(check bool) "no data directory created" false
        (Sys.file_exists (Filename.concat tmp "data")))

let test_missing_table_raises () =
  (* A missing table is an error that names the path and the command
     that regenerates it; nothing is trained or written in its place. *)
  let spec = { Tables.delta1 with Tables.table = "no-such-table" } in
  let p = Tables.path spec.Tables.table in
  match Tables.tree spec with
  | _ -> Alcotest.fail "loaded a table that does not exist"
  | exception Failure msg ->
    Alcotest.(check bool) ("names the path: " ^ msg) true (contains msg p);
    Alcotest.(check bool) "names the command" true
      (contains msg ("remy_train --model general --delta 1 -o " ^ p));
    Alcotest.(check bool) "no table written" false (Sys.file_exists p)

let test_rtts_broadcast () =
  let sc =
    Scenario.make
      ~service:(Remy_cc.Topology.Rate_mbps 10.)
      ~n:3 ~rtt:0.1
      ~rtts:[| 0.05; 0.1; 0.15 |]
      ~workload:Workload.saturating ~start:`Immediate ~duration:5. ~replications:1 ()
  in
  (match sc.Scenario.network with
  | Scenario.Dumbbell { rtts; _ } ->
    Alcotest.(check int) "explicit rtts kept" 3 (Array.length rtts)
  | Scenario.Topology _ -> Alcotest.fail "a dumbbell scenario");
  let s = Scenario.run_scheme sc Schemes.newreno in
  Alcotest.(check bool) "runs" true (Array.length s.Scenario.points > 0)

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: no exception" name
  | exception Invalid_argument msg -> msg

let test_rtts_length_checked () =
  let msg =
    raises_invalid "1 rtt for 3 senders" (fun () ->
        Scenario.make
          ~service:(Remy_cc.Topology.Rate_mbps 10.)
          ~n:3 ~rtt:0.1 ~rtts:[| 0.05 |] ~workload:Workload.saturating
          ~duration:5. ())
  in
  Alcotest.(check bool) ("names both counts: " ^ msg) true
    (contains msg "1 rtts" && contains msg "3 senders")

let test_loss_rate_checked () =
  let make loss () =
    Scenario.make ~loss
      ~service:(Remy_cc.Topology.Rate_mbps 15.)
      ~n:2 ~rtt:0.15 ~workload:Workload.saturating ~duration:5. ()
  in
  List.iter
    (fun loss -> ignore (raises_invalid (Printf.sprintf "loss %g" loss) (make loss)))
    [ 1.; -0.1; nan ];
  match (make 0.999 ()).Scenario.network with
  | Scenario.Dumbbell { loss; _ } -> Alcotest.(check (float 0.)) "kept" 0.999 loss
  | Scenario.Topology _ -> Alcotest.fail "a dumbbell scenario"

let tiny_topology name =
  Scenario.topology ~name ~n:4 ~link_mbps:15. ~rtt:0.15
    ~workload:(Workload.by_bytes ~mean_bytes:5e4 ~mean_off:0.3)
    ~duration:2. ~replications:2 ()

let test_unknown_topology () =
  let msg = raises_invalid "unknown topology" (fun () -> tiny_topology "ring") in
  List.iter
    (fun name -> Alcotest.(check bool) ("lists " ^ name) true (contains msg name))
    Remy_cc.Topology.names

let test_named_topology name () =
  let sc = tiny_topology name in
  let tree = Remy.Rule_tree.create () in
  Remy.Rule_tree.set_action tree 0
    { Remy.Action.multiple = 0.8; increment = 5.; intersend_ms = 1. };
  let remy = Schemes.remy ~name:"Remy test" tree in
  List.iter
    (fun (scheme : Schemes.t) ->
      let s = Scenario.run_scheme sc scheme in
      let label what = scheme.Schemes.name ^ ": " ^ what in
      Alcotest.(check bool) (label "points") true (Array.length s.Scenario.points > 0);
      Alcotest.(check int) (label "flows rows") 2 (Array.length s.Scenario.flows);
      Array.iter
        (fun row -> Alcotest.(check int) (label "flows per row") 4 (Array.length row))
        s.Scenario.flows;
      Alcotest.(check bool) (label "identical on a second call") true
        (compare s (Scenario.run_scheme sc scheme) = 0))
    [ Schemes.newreno; remy ];
  (* --idle-restart reaches the RemyCC on a named topology: across an
     outage, restarting the memory changes the run.  A split table with
     a different action per rule, because restarting the memory of a
     single-rule table changes nothing. *)
  let split = Remy.Rule_tree.create () in
  ignore
    (Remy.Rule_tree.subdivide split 0
       ~at:(Remy.Memory.make ~ack_ewma:20. ~send_ewma:20. ~rtt_ratio:1.2));
  List.iteri
    (fun i id ->
      Remy.Rule_tree.set_action split id
        {
          Remy.Action.multiple = 0.5 +. (0.1 *. float_of_int i);
          increment = float_of_int (i + 1);
          intersend_ms = 0.5 *. float_of_int (i + 1);
        })
    (Remy.Rule_tree.live_ids split);
  let faults = Result.get_ok (Remy_faults.Spec.parse "outage:0.5+0.8") in
  let run scheme = Scenario.run_scheme ~faults sc scheme in
  Alcotest.(check bool) "idle restart changes the run" true
    (compare
       (run (Schemes.remy ~idle_restart_s:0.2 ~name:"Remy test" split))
       (run (Schemes.remy ~name:"Remy test" split))
    <> 0)

let test_replications_checked () =
  ignore
    (raises_invalid "make, 0 replications" (fun () ->
         Scenario.make ~service:(Remy_cc.Topology.Rate_mbps 15.) ~n:2 ~rtt:0.15
           ~workload:Workload.saturating ~duration:5. ~replications:0 ()));
  ignore
    (raises_invalid "topology, -1 replications" (fun () ->
         Scenario.topology ~name:"parking-lot" ~n:2 ~link_mbps:15. ~rtt:0.15
           ~workload:Workload.saturating ~duration:5. ~replications:(-1) ()))

let test_senders_checked () =
  ignore
    (raises_invalid "make, -1 senders" (fun () ->
         Scenario.make ~service:(Remy_cc.Topology.Rate_mbps 15.) ~n:(-1) ~rtt:0.15
           ~workload:Workload.saturating ~duration:5. ()));
  ignore
    (raises_invalid "topology, -1 senders" (fun () ->
         Scenario.topology ~name:"parking-lot" ~n:(-1) ~link_mbps:15. ~rtt:0.15
           ~workload:Workload.saturating ~duration:5. ()))

(* A population whose schemes are all [scheme] is [run_scheme scheme]. *)
let check_uniform_population name sc (scheme : Schemes.t) =
  let population = Array.make sc.Scenario.n scheme in
  Alcotest.(check bool) (name ^ ": uniform population = run_scheme") true
    (compare (Scenario.run_population sc population) (Scenario.run_scheme sc scheme) = 0)

let test_population_uniform () =
  check_uniform_population "dumbbell" (quick_scenario ~n:3 ()) Schemes.cubic;
  check_uniform_population "parking-lot" (tiny_topology "parking-lot") Schemes.newreno

(* Flow [i] runs [population.(i)]: a mixed pair matches the same network
   built by hand, one replication at a time. *)
let test_population_mixed () =
  let tree = Remy.Rule_tree.create () in
  Remy.Rule_tree.set_action tree 0
    { Remy.Action.multiple = 0.8; increment = 5.; intersend_ms = 1. };
  let remy = Schemes.remy ~name:"Remy test" tree in
  let sc = quick_scenario () in
  let s = Scenario.run_population sc [| remy; Schemes.cubic |] in
  Alcotest.(check string) "names both schemes" "Remy test + Cubic" s.Scenario.scheme;
  Array.iteri
    (fun rep row ->
      let config =
        Remy_cc.Topology.dumbbell ~service:(Remy_cc.Topology.Rate_mbps 15.)
          ~qdisc:(Remy_cc.Topology.Droptail Schemes.droptail_capacity)
          ~rtts:[| 0.15; 0.15 |] ~cc:remy.Schemes.factory ~workload:sc.Scenario.workload
          ~start:`Off_draw ~duration:10. ~seed:(sc.Scenario.base_seed + rep) ()
      in
      config.flows.(1) <- { (config.flows.(1)) with cc = Schemes.cubic.Schemes.factory };
      Alcotest.(check bool)
        (Printf.sprintf "replication %d matches the hand-built network" rep)
        true
        (compare row (Remy_cc.Topology.run config).Remy_cc.Topology.flows = 0))
    s.Scenario.flows

let test_population_checked () =
  let sc = quick_scenario () in
  let msg =
    raises_invalid "3 schemes for 2 senders" (fun () ->
        Scenario.run_population sc (Array.make 3 Schemes.newreno))
  in
  Alcotest.(check bool) ("names both counts: " ^ msg) true
    (contains msg "3 schemes" && contains msg "2 senders");
  let msg =
    raises_invalid "mixed pairings" (fun () ->
        Scenario.run_population sc [| Schemes.newreno; Schemes.cubic_sfqcodel |])
  in
  Alcotest.(check bool) ("names the schemes: " ^ msg) true
    (contains msg "NewReno" && contains msg "Cubic/sfqCoDel")

let tests =
  [
    Alcotest.test_case "registry names" `Quick test_registry_names;
    Alcotest.test_case "qdisc pairings" `Quick test_qdisc_pairings;
    Alcotest.test_case "run_scheme points" `Slow test_run_scheme_points;
    Alcotest.test_case "deterministic run" `Slow test_run_deterministic;
    Alcotest.test_case "remy scheme runs" `Slow test_remy_scheme_runs;
    Alcotest.test_case "tables path" `Quick test_tables_path_shape;
    Alcotest.test_case "missing table raises" `Quick test_missing_table_raises;
    Alcotest.test_case "table lookup creates nothing" `Quick test_lookup_creates_nothing;
    Alcotest.test_case "per-flow rtts" `Slow test_rtts_broadcast;
    Alcotest.test_case "rtts length checked" `Quick test_rtts_length_checked;
    Alcotest.test_case "loss rate checked" `Quick test_loss_rate_checked;
    Alcotest.test_case "unknown topology" `Quick test_unknown_topology;
    Alcotest.test_case "replications checked" `Quick test_replications_checked;
    Alcotest.test_case "senders checked" `Quick test_senders_checked;
    Alcotest.test_case "uniform population = run_scheme" `Slow test_population_uniform;
    Alcotest.test_case "mixed population per flow" `Slow test_population_mixed;
    Alcotest.test_case "population checked" `Quick test_population_checked;
  ]
  @ List.map
      (fun name ->
        Alcotest.test_case ("named topology " ^ name) `Slow (test_named_topology name))
      Remy_cc.Topology.names
