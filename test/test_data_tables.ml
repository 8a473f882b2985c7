(* Sanity checks over the checked-in pre-trained rule tables: they must
   load, be well-formed, behave deterministically, and actually move
   traffic.  Skipped quietly when a table has not been trained yet. *)

open Remy
open Remy_scenarios

let table_names =
  [ "delta01"; "delta1"; "delta10"; "onex"; "tenx"; "datacenter"; "coexist" ]

let with_table name f =
  match Tables.load name with
  | Ok tree -> f tree
  | Error _ -> Printf.eprintf "[skip] table %s not trained yet\n" name

let test_loads_and_roundtrips name () =
  with_table name (fun tree ->
      Alcotest.(check bool) "non-empty" true (Rule_tree.num_rules tree >= 1);
      (* Round-trip through the serializer preserves lookups. *)
      let tmp = Filename.temp_file "table" ".rules" in
      Rule_tree.save tmp tree;
      (match Rule_tree.load tmp with
      | Error msg -> Alcotest.fail msg
      | Ok tree' ->
        let rng = Remy_util.Prng.create 55 in
        for _ = 1 to 200 do
          let m =
            Memory.make
              ~ack_ewma:(Remy_util.Prng.float rng 100.)
              ~send_ewma:(Remy_util.Prng.float rng 100.)
              ~rtt_ratio:(Remy_util.Prng.float rng 8.)
          in
          let a = Rule_tree.action tree (Rule_tree.lookup tree m) in
          let a' = Rule_tree.action tree' (Rule_tree.lookup tree' m) in
          if not (Action.equal a a') then Alcotest.fail "lookup divergence"
        done);
      Sys.remove tmp)

let test_actions_in_searchable_region name () =
  with_table name (fun tree ->
      List.iter
        (fun id ->
          let a = Rule_tree.action tree id in
          if
            a.Action.multiple < 0. || a.Action.multiple > 2.
            || a.Action.increment < -256. || a.Action.increment > 256.
            || a.Action.intersend_ms < 0.001 || a.Action.intersend_ms > 1000.
          then
            Alcotest.failf "rule %d action outside clamp region: %s" id
              (Format.asprintf "%a" Action.pp a))
        (Rule_tree.live_ids tree))

let test_delta1_moves_traffic () =
  with_table "delta1" (fun tree ->
      let scenario =
        Scenario.make
          ~service:(Remy_cc.Topology.Rate_mbps 15.)
          ~n:2 ~rtt:0.150
          ~workload:(Remy_sim.Workload.by_time ~mean_on:1. ~mean_off:1.)
          ~duration:15. ~replications:2 ()
      in
      let s = Scenario.run_scheme scenario (Schemes.remy ~name:"remy" tree) in
      Alcotest.(check bool) "achieves real throughput" true
        (s.Scenario.median_tput > 0.5))

let test_delta_family_orders_delay () =
  (* Bigger delta must not yield *more* queueing delay than smaller
     delta on the design-range scenario. *)
  match (Tables.load "delta01", Tables.load "delta10") with
  | Ok t01, Ok t10 ->
    let scenario =
      Scenario.make
        ~service:(Remy_cc.Topology.Rate_mbps 15.)
        ~n:4 ~rtt:0.150
        ~workload:(Remy_sim.Workload.by_bytes ~mean_bytes:100e3 ~mean_off:0.5)
        ~duration:20. ~replications:3 ()
    in
    let d tree =
      (Scenario.run_scheme scenario (Schemes.remy ~name:"r" tree)).Scenario
        .median_qdelay
    in
    Alcotest.(check bool) "delta=10 trades throughput for delay" true
      (d t10 <= d t01)
  | _ -> Printf.eprintf "[skip] delta tables not trained yet\n"

let tests =
  List.concat_map
    (fun name ->
      [
        Alcotest.test_case (name ^ " loads/roundtrips") `Quick
          (test_loads_and_roundtrips name);
        Alcotest.test_case (name ^ " actions clamped") `Quick
          (test_actions_in_searchable_region name);
      ])
    table_names
  @ [
      Alcotest.test_case "delta1 moves traffic" `Slow test_delta1_moves_traffic;
      Alcotest.test_case "delta family orders delay" `Slow test_delta_family_orders_delay;
    ]
