(* The SoA fleet acceptance tests: Fleet.factory must be a drop-in,
   bit-identical replacement for the per-record backend
   (Tcp_sender + Remycc closures) that Topology.run uses by default.
   Equivalence is checked flow for flow on multi-bottleneck scenarios
   that exercise every code path the fleet mirrors — pacing, windowing,
   NewReno-style recovery, RFC 6298 timeouts under stochastic loss,
   on/off restarts — plus the override and tally side channels the
   optimizer depends on. *)

open Remy
open Remy_cc
open Remy_sim

(* A subdivided tree with sharply different actions per region, so a
   divergence in memory-signal arithmetic would select different rules
   and blow the comparison up rather than hide in float noise. *)
let make_tree () =
  let tree = Rule_tree.create () in
  ignore
    (Rule_tree.subdivide tree 0
       ~at:(Memory.make ~ack_ewma:200. ~send_ewma:200. ~rtt_ratio:1.5));
  List.iter
    (fun id ->
      let b = Rule_tree.box tree id in
      if fst b.(2) >= 1.5 then
        Rule_tree.set_action tree id
          { Action.multiple = 0.5; increment = 0.; intersend_ms = 3. }
      else
        Rule_tree.set_action tree id
          { Action.multiple = 1.; increment = 2.; intersend_ms = 0.5 })
    (Rule_tree.live_ids tree);
  tree

let check_flow name i (a : Metrics.flow_summary) (b : Metrics.flow_summary) =
  let lbl s = Printf.sprintf "%s: flow %d %s" name i s in
  Alcotest.(check (float 0.)) (lbl "throughput") a.Metrics.throughput_mbps
    b.Metrics.throughput_mbps;
  Alcotest.(check (float 0.))
    (lbl "queueing delay")
    a.Metrics.mean_queueing_delay_ms b.Metrics.mean_queueing_delay_ms;
  Alcotest.(check int) (lbl "bytes") a.Metrics.bytes b.Metrics.bytes;
  Alcotest.(check int) (lbl "packets") a.Metrics.packets b.Metrics.packets;
  Alcotest.(check (float 0.)) (lbl "on_time") a.Metrics.on_time b.Metrics.on_time

(* Run [config] under both backends and demand identical results.  The
   records arm relies on the flows' [cc] factories (Remycc closures);
   the fleet arm substitutes the shared-array backend for the same
   tree.  A fleet factory is single-use, so build it here. *)
let check_equiv ?override ?tally_pair name tree (config : Topology.config) =
  let records =
    match tally_pair with
    | None -> Topology.run config
    | Some (t, _) ->
      Topology.run
        {
          config with
          Topology.flows =
            Array.map
              (fun (f : Topology.flow_spec) ->
                { f with Topology.cc = Remycc.factory ?override ~tally:t tree })
              config.Topology.flows;
        }
  in
  let fleet =
    let tally = Option.map snd tally_pair in
    Topology.run
      ~sender_factory:(Fleet.factory ?override ?tally tree)
      config
  in
  Alcotest.(check bool) (name ^ ": traffic flowed") true
    (records.Topology.received > 0);
  Array.iteri
    (fun i f -> check_flow name i f fleet.Topology.flows.(i))
    records.Topology.flows;
  Alcotest.(check int) (name ^ ": drops") records.Topology.drops
    fleet.Topology.drops;
  Alcotest.(check int) (name ^ ": delivered") records.Topology.delivered
    fleet.Topology.delivered;
  Alcotest.(check int) (name ^ ": received") records.Topology.received
    fleet.Topology.received;
  Alcotest.(check (float 0.))
    (name ^ ": utilization")
    records.Topology.bottleneck_utilization fleet.Topology.bottleneck_utilization

let test_fleet_matches_records_parking_lot () =
  let tree = make_tree () in
  let cfg ?override () =
    Topology.parking_lot ~hops:3 ~n:6
      ~cc:(Remycc.factory ?override tree)
      ~workload:(Workload.by_bytes ~mean_bytes:5e4 ~mean_off:0.3)
      ~start:`Off_draw ~duration:10. ~seed:23 ()
  in
  check_equiv "parking-lot" tree (cfg ());
  (* The optimizer's candidate-evaluation side channel: substituting one
     rule's action must take the same effect in both backends. *)
  let override =
    (0, { Action.multiple = 0.; increment = 1.; intersend_ms = 40. })
  in
  check_equiv ~override "parking-lot override" tree (cfg ~override ())

let test_fleet_matches_records_incast () =
  let tree = make_tree () in
  check_equiv "incast" tree
    (Topology.incast ~n:32 ~cc:(Remycc.factory tree) ~duration:1.5 ~seed:5 ())

let test_fleet_matches_records_lossy () =
  (* Stochastic loss drives dup-ack recovery, partial acks, and RTO
     go-back-N — the fleet's hairiest mirrored paths. *)
  let tree = make_tree () in
  let rtt = 0.08 in
  let cfg =
    {
      Topology.links =
        [|
          {
            Topology.service = Dumbbell.Rate_mbps 8.;
            delay_s = rtt /. 2.;
            qdisc = Dumbbell.With_loss (0.05, Dumbbell.Droptail 200);
          };
        |];
      flows =
        Array.init 4 (fun _ ->
            {
              Topology.cc = Remycc.factory tree;
              route = [| 0 |];
              access_delay_s = 0.;
              workload = Workload.by_bytes ~mean_bytes:8e4 ~mean_off:0.2;
              start = `Off_draw;
            });
      duration = 15.;
      seed = 31;
      min_rto = 0.2;
    }
  in
  check_equiv "lossy" tree cfg

let test_fleet_matches_records_tally () =
  (* Rule-usage tallies (counts and reservoir samples both draw from a
     seeded RNG) must come out identical. *)
  let tree = make_tree () in
  let tally_of () = Tally.create ~capacity:(Rule_tree.capacity tree) ~seed:3 () in
  let t_rec = tally_of () and t_fleet = tally_of () in
  let cfg =
    Topology.parking_lot ~hops:2 ~n:4 ~cc:(Remycc.factory tree)
      ~workload:Workload.saturating ~start:`Immediate ~duration:4. ~seed:8 ()
  in
  check_equiv ~tally_pair:(t_rec, t_fleet) "tally" tree cfg;
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "rule %d usage" id)
        (Tally.count t_rec id) (Tally.count t_fleet id);
      Alcotest.(check bool) (Printf.sprintf "rule %d samples" id) true
        (Tally.samples t_rec id = Tally.samples t_fleet id))
    (Rule_tree.live_ids tree);
  Alcotest.(check bool) "rules were exercised" true
    (List.exists (fun id -> Tally.count t_rec id > 0) (Rule_tree.live_ids tree))

let test_fleet_scales_to_4096 () =
  (* The allocation story at the target scale: a 4096-flow incast burst
     runs to completion and stays deterministic. *)
  let tree = make_tree () in
  let run () =
    Topology.run
      ~sender_factory:(Fleet.factory tree)
      (Topology.incast ~n:4096 ~cc:(Remycc.factory tree) ~duration:0.25 ~seed:2 ())
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "bursts delivered" true (r1.Topology.received > 0);
  Array.iteri
    (fun i f -> check_flow "fleet-4096" i f r2.Topology.flows.(i))
    r1.Topology.flows

let test_fleet_factory_is_single_use () =
  (* One fleet per run: reusing a factory across runs with different
     flow counts must be rejected rather than silently sharing arrays. *)
  let tree = make_tree () in
  let factory = Fleet.factory tree in
  let cfg n =
    Topology.incast ~n ~cc:(Remycc.factory tree) ~duration:0.05 ~seed:1 ()
  in
  ignore (Topology.run ~sender_factory:factory (cfg 2));
  match Topology.run ~sender_factory:factory (cfg 3) with
  | _ -> Alcotest.fail "reuse with a different flow count was accepted"
  | exception Invalid_argument _ -> ()

let tests =
  [
    Alcotest.test_case "fleet matches records (parking lot + override)" `Slow
      test_fleet_matches_records_parking_lot;
    Alcotest.test_case "fleet matches records (incast)" `Slow
      test_fleet_matches_records_incast;
    Alcotest.test_case "fleet matches records (stochastic loss)" `Slow
      test_fleet_matches_records_lossy;
    Alcotest.test_case "fleet matches records (tally)" `Slow
      test_fleet_matches_records_tally;
    Alcotest.test_case "fleet runs 4096 flows deterministically" `Slow
      test_fleet_scales_to_4096;
    Alcotest.test_case "fleet factory is single-use" `Quick
      test_fleet_factory_is_single_use;
  ]
