open Remy_cc
open Remy_sim

(* NewReno on a 15 Mbps DropTail dumbbell, one flow per entry of [rtts]. *)
let config ?(service = Topology.Rate_mbps 15.) ?(qdisc = Topology.Droptail 1000)
    ?(cc = Newreno.factory ()) ?(workload = Workload.saturating) ?(start = `Immediate)
    ?(duration = 30.) ?(seed = 9) rtts =
  Topology.dumbbell ~service ~qdisc ~rtts ~cc ~workload ~start ~duration ~seed ()

let test_single_flow_fills_link () =
  let r = Topology.run (config [| 0.15 |]) in
  let f = r.Topology.flows.(0) in
  Alcotest.(check bool) "near link rate" true (f.Metrics.throughput_mbps > 11.);
  Alcotest.(check bool) "utilization consistent" true (r.Topology.bottleneck_utilization > 0.75)

let test_two_flows_split_capacity () =
  let r = Topology.run (config [| 0.15; 0.15 |]) in
  let t0 = r.Topology.flows.(0).Metrics.throughput_mbps in
  let t1 = r.Topology.flows.(1).Metrics.throughput_mbps in
  Alcotest.(check bool) "capacity shared" true (t0 +. t1 > 10.);
  Alcotest.(check bool) "no starvation" true (Float.min t0 t1 > 1.)

let test_deterministic_given_seed () =
  let cfg = config ~workload:(Workload.by_bytes ~mean_bytes:5e4 ~mean_off:0.3) [| 0.15 |] in
  let r1 = Topology.run cfg and r2 = Topology.run cfg in
  Alcotest.(check (float 0.)) "identical throughput"
    r1.Topology.flows.(0).Metrics.throughput_mbps
    r2.Topology.flows.(0).Metrics.throughput_mbps;
  Alcotest.(check int) "identical drops" r1.Topology.drops r2.Topology.drops

let test_seed_changes_runs () =
  let cfg = config ~workload:(Workload.by_bytes ~mean_bytes:5e4 ~mean_off:0.3) [| 0.15 |] in
  let r1 = Topology.run cfg in
  let r2 = Topology.run { cfg with Topology.seed = 10 } in
  Alcotest.(check bool) "different seeds differ" true
    (r1.Topology.flows.(0).Metrics.throughput_mbps
    <> r2.Topology.flows.(0).Metrics.throughput_mbps)

let test_queueing_delay_reflects_buffer () =
  (* A saturating NewReno flow against a big buffer must show the
     bufferbloat the paper attributes to loss-based TCP. *)
  let r = Topology.run (config [| 0.15 |]) in
  Alcotest.(check bool) "inflated queues" true
    (r.Topology.flows.(0).Metrics.mean_queueing_delay_ms > 50.)

let test_sfqcodel_cuts_delay () =
  let droptail = Topology.run (config [| 0.15; 0.15 |]) in
  let sfq = Topology.run (config ~qdisc:(Topology.Sfq_codel 1000) [| 0.15; 0.15 |]) in
  let delay cfg = cfg.Topology.flows.(0).Metrics.mean_queueing_delay_ms in
  Alcotest.(check bool) "CoDel keeps delay low" true (delay sfq < delay droptail /. 2.)

let test_differing_rtts () =
  let r = Topology.run (config ~duration:60. [| 0.05; 0.2 |]) in
  let t_short = r.Topology.flows.(0).Metrics.throughput_mbps in
  let t_long = r.Topology.flows.(1).Metrics.throughput_mbps in
  (* Classic RTT unfairness: the short-RTT flow wins, the long-RTT flow
     is squeezed but not fully starved. *)
  Alcotest.(check bool) "short RTT advantaged" true (t_short > t_long);
  Alcotest.(check bool) "long RTT still served" true (t_long > 0.1)

let test_dctcp_over_red () =
  let r =
    Topology.run
      (config ~service:(Topology.Rate_mbps 100.)
         ~qdisc:(Topology.Dctcp_red { capacity = 1000; threshold = 65 })
         ~cc:(Dctcp.factory ()) ~duration:10. ~seed:12 (Array.make 4 0.004))
  in
  let total =
    Array.fold_left
      (fun acc f -> acc +. f.Metrics.throughput_mbps)
      0. r.Topology.flows
  in
  Alcotest.(check bool) "high aggregate utilization" true (total > 70.);
  let delays =
    Array.map (fun f -> f.Metrics.mean_queueing_delay_ms) r.Topology.flows
  in
  Array.iter
    (fun d -> Alcotest.(check bool) "ECN keeps queues short" true (d < 20.))
    delays

let test_trace_service () =
  let rng = Remy_util.Prng.create 33 in
  let trace = Cell_trace.synthesize rng Cell_trace.verizon_like ~duration:30. in
  let r = Topology.run (config ~service:(Topology.Trace trace) ~seed:13 [| 0.05 |]) in
  let f = r.Topology.flows.(0) in
  let trace_rate = Cell_trace.mean_rate_mbps trace in
  Alcotest.(check bool) "bounded by trace rate" true
    (f.Metrics.throughput_mbps <= trace_rate +. 0.5);
  Alcotest.(check bool) "gets useful throughput" true
    (f.Metrics.throughput_mbps > trace_rate /. 4.)

let test_delivery_hook_sequences () =
  let seqs = ref [] in
  let cfg = config ~duration:5. [| 0.15 |] in
  let _ =
    Topology.run
      ~delivery_hook:(fun ~flow ~now ~seq ->
        Alcotest.(check int) "flow id" 0 flow;
        ignore now;
        seqs := seq :: !seqs)
      cfg
  in
  let seqs = List.rev !seqs in
  Alcotest.(check bool) "deliveries observed" true (List.length seqs > 100);
  (* In-order network: delivered sequence numbers are nondecreasing in
     the absence of retransmissions. *)
  Alcotest.(check int) "starts at 0" 0 (List.hd seqs)

let test_on_off_workload_duty_cycle () =
  let workload = Workload.by_time ~mean_on:0.5 ~mean_off:0.5 in
  let r = Topology.run (config ~workload ~start:`Off_draw ~duration:60. [| 0.15 |]) in
  let on_time = r.Topology.flows.(0).Metrics.on_time in
  (* 50% duty cycle, loose tolerance. *)
  Alcotest.(check bool) "duty cycle plausible" true (on_time > 10. && on_time < 50.)

let tests =
  [
    Alcotest.test_case "single flow fills link" `Slow test_single_flow_fills_link;
    Alcotest.test_case "two flows split capacity" `Slow test_two_flows_split_capacity;
    Alcotest.test_case "deterministic given seed" `Quick test_deterministic_given_seed;
    Alcotest.test_case "seed changes runs" `Quick test_seed_changes_runs;
    Alcotest.test_case "droptail bufferbloat" `Slow test_queueing_delay_reflects_buffer;
    Alcotest.test_case "sfqCoDel cuts delay" `Slow test_sfqcodel_cuts_delay;
    Alcotest.test_case "differing RTTs unfairness" `Slow test_differing_rtts;
    Alcotest.test_case "DCTCP over RED" `Slow test_dctcp_over_red;
    Alcotest.test_case "trace-driven service" `Slow test_trace_service;
    Alcotest.test_case "delivery hook" `Quick test_delivery_hook_sequences;
    Alcotest.test_case "on/off duty cycle" `Slow test_on_off_workload_duty_cycle;
  ]
