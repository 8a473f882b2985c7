open Remy_cc
open Remy_sim

(* Integration: one XCP flow over an XCP router converges near link
   capacity without loss. *)
let run_xcp ~n ~mbps ~duration ~seed =
  Topology.run
    (Topology.dumbbell ~service:(Topology.Rate_mbps mbps) ~qdisc:(Topology.Xcp 1000)
       ~rtts:(Array.make n 0.1) ~cc:(Xcp.factory ()) ~workload:Workload.saturating
       ~start:`Immediate ~duration ~seed ())

let test_single_flow_converges () =
  let r = run_xcp ~n:1 ~mbps:10. ~duration:20. ~seed:1 in
  let f = r.Topology.flows.(0) in
  Alcotest.(check bool) "high utilization" true (f.Metrics.throughput_mbps > 7.);
  Alcotest.(check bool) "low queueing" true (f.Metrics.mean_queueing_delay_ms < 30.)

let test_two_flows_share_fairly () =
  let r = run_xcp ~n:2 ~mbps:10. ~duration:30. ~seed:2 in
  let t0 = r.Topology.flows.(0).Metrics.throughput_mbps in
  let t1 = r.Topology.flows.(1).Metrics.throughput_mbps in
  Alcotest.(check bool) "both get substantial share" true (t0 > 2. && t1 > 2.);
  let ratio = Float.max t0 t1 /. Float.min t0 t1 in
  Alcotest.(check bool) "roughly fair" true (ratio < 2.)

let test_xcp_avoids_loss () =
  let r = run_xcp ~n:4 ~mbps:10. ~duration:20. ~seed:3 in
  (* The explicit controller should keep the queue from overflowing a
     1000-packet buffer. *)
  Alcotest.(check int) "no drops" 0 r.Topology.drops

let test_router_without_xcp_senders () =
  (* Non-XCP traffic through an XCP router: no feedback, no crash, and
     the router still forwards. *)
  let r =
    Topology.run
      (Topology.dumbbell ~service:(Topology.Rate_mbps 10.) ~qdisc:(Topology.Xcp 1000)
         ~rtts:[| 0.1 |] ~cc:(Newreno.factory ()) ~workload:Workload.saturating
         ~start:`Immediate ~duration:10. ~seed:4 ())
  in
  Alcotest.(check bool) "traffic flows" true
    (r.Topology.flows.(0).Metrics.throughput_mbps > 1.)

let tests =
  [
    Alcotest.test_case "single flow converges" `Slow test_single_flow_converges;
    Alcotest.test_case "two flows share fairly" `Slow test_two_flows_share_fairly;
    Alcotest.test_case "XCP avoids loss" `Slow test_xcp_avoids_loss;
    Alcotest.test_case "router tolerates non-XCP senders" `Quick test_router_without_xcp_senders;
  ]
