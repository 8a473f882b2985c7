(* The sender core ([Remy_cc.Senders], the structure-of-arrays "fleet")
   running RemyCCs through [Topology.run].  Each multi-flow run is
   pinned by the digest of its result.  The digests were generated by
   the per-record sender and by the RemyCC-only Fleet that the core
   replaced, which agreed on them bit for bit, so the core still
   "matches the records": on multi-bottleneck scenarios that exercise
   pacing, windowing, NewReno-style recovery, RFC 6298 timeouts under
   stochastic loss and on/off restarts, plus the tally side channel the
   optimizer depends on.  The override's digest came later, from the
   core itself.  test_tcp_sender checks the core against the record
   oracle directly, for every CC, live-rule overrides included. *)

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

(* The tally case also pins every rule's count and kept samples. *)
let render_tally tree tally =
  let b = Buffer.create 1024 in
  List.iter
    (fun id ->
      Printf.bprintf b "rule %d: %d\n" id (Tally.count tally id);
      List.iter
        (fun (m : Memory.t) ->
          Printf.bprintf b "  %.17g %.17g %.17g\n" m.Memory.ack_ewma
            m.Memory.send_ewma m.Memory.rtt_ratio)
        (Tally.samples tally id))
    (Rule_tree.live_ids tree);
  Buffer.contents b

(* Run [config] on the core, demand the pinned result, and return it
   rendered. *)
let pinned ~expected name (config : Topology.config) =
  let r = Topology.run config in
  Alcotest.(check bool) (name ^ ": traffic flowed") true (r.Topology.received > 0);
  let text = Sims.render_result r in
  Sims.check_digest name ~expected text;
  text

let check_pinned ~expected name config = ignore (pinned ~expected name config)

let test_fleet_matches_records_parking_lot () =
  let tree = make_tree () in
  let cfg ?override () =
    Topology.parking_lot ~hops:3 ~n:6
      ~cc:(Remycc.factory ?override tree)
      ~workload:(Workload.by_bytes ~mean_bytes:5e4 ~mean_off:0.3)
      ~start:`Off_draw ~duration:10. ~seed:23 ()
  in
  let plain = pinned ~expected:"d0245b1ea1599ed72c269a9f8f3ea0e5" "parking-lot" (cfg ()) in
  (* The optimizer's candidate-evaluation side channel: substituting one
     rule's action must take effect.  The override targets the leaf
     holding the all-zeroes initial memory, which every sender consults
     first. *)
  let override =
    ( Rule_tree.lookup tree Memory.zero,
      { Action.multiple = 0.; increment = 1.; intersend_ms = 40. } )
  in
  let overridden =
    pinned ~expected:"4ac7aa7e9dfa4e889959309146ff987c" "parking-lot override"
      (cfg ~override ())
  in
  Alcotest.(check bool) "the override changes the run" false (String.equal plain overridden)

let test_fleet_matches_records_incast () =
  let tree = make_tree () in
  check_pinned ~expected:"9acd7a46ad137329d6f645a6eab22e8d" "incast"
    (Topology.incast ~n:32 ~cc:(Remycc.factory tree) ~duration:1.5 ~seed:5 ())

let test_fleet_matches_records_lossy () =
  (* Stochastic loss drives dup-ack recovery, partial acks, and RTO
     go-back-N — the sender's hairiest paths. *)
  let tree = make_tree () in
  let rtt = 0.08 in
  let cfg =
    {
      Topology.links =
        [|
          {
            Topology.service = Topology.Rate_mbps 8.;
            delay_s = rtt /. 2.;
            qdisc = Topology.With_loss (0.05, Topology.Droptail 200);
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
  check_pinned ~expected:"80ee0aea85a52f2bc373d35f5465be8b" "lossy" cfg

let test_fleet_matches_records_tally () =
  (* Rule-usage tallies (counts and reservoir samples both draw from a
     seeded RNG) must come out as pinned. *)
  let tree = make_tree () in
  let tally = Tally.create ~capacity:(Rule_tree.capacity tree) ~seed:3 () in
  let cfg =
    Topology.parking_lot ~hops:2 ~n:4 ~cc:(Remycc.factory ~tally tree)
      ~workload:Workload.saturating ~start:`Immediate ~duration:4. ~seed:8 ()
  in
  check_pinned ~expected:"8054b979a877e0f7250630478fd0eee4" "tally" cfg;
  Sims.check_digest "tally counts" ~expected:"dd6504bae5e92f3059f01d31dd62ffb8"
    (render_tally tree tally);
  Alcotest.(check bool) "rules were exercised" true
    (List.exists (fun id -> Tally.count tally id > 0) (Rule_tree.live_ids tree))

let test_fleet_scales_to_4096 () =
  (* The allocation story at the target scale: a 4096-flow incast burst
     runs to completion and stays deterministic. *)
  let tree = make_tree () in
  let run () =
    Topology.run
      (Topology.incast ~n:4096 ~cc:(Remycc.factory tree) ~duration:0.25 ~seed:2 ())
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "bursts delivered" true (r1.Topology.received > 0);
  Array.iteri
    (fun i f -> check_flow "fleet-4096" i f r2.Topology.flows.(i))
    r1.Topology.flows

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
  ]
