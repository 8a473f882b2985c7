open Remy_cc
open Remy_sim
open Remy_util

let test_incast_draws_are_deterministic () =
  let w = Workload.incast ~burst_bytes:(32. *. 1500.) ~period:0.1 in
  let rng = Prng.create 1 in
  for _ = 1 to 20 do
    (match Workload.sample_on w rng with
    | Workload.Packets 32 -> ()
    | Workload.Packets n -> Alcotest.failf "burst of %d" n
    | Workload.Seconds _ -> Alcotest.fail "expected Packets");
    Alcotest.(check (float 0.)) "fixed period" 0.1 (Workload.sample_off w rng)
  done

let run_incast ~qdisc ~senders ~capacity =
  let flows =
    Array.init senders (fun _ ->
        {
          Dumbbell.cc = Dctcp.factory ();
          rtt = 0.004;
          workload = Workload.incast ~burst_bytes:(64. *. 1500.) ~period:0.05;
          start = `Immediate;
        })
  in
  Sims.dumbbell
    {
      Dumbbell.service = Dumbbell.Rate_mbps 1000.;
      qdisc = qdisc capacity;
      flows;
      duration = 3.;
      seed = 11;
      min_rto = 0.2;
    }

let test_synchronized_bursts_overflow_small_buffer () =
  (* 32 senders x 64-segment synchronized bursts = 2048 packets hitting
     a 128-packet buffer at once: drops are inevitable.  This is the
     incast collapse of Section 3.2's datacenter traffic model. *)
  let r = run_incast ~qdisc:(fun c -> Dumbbell.Droptail c) ~senders:32 ~capacity:128 in
  Alcotest.(check bool) "incast drops" true (r.Topology.drops > 0)

let test_big_buffer_absorbs_burst () =
  let r =
    run_incast ~qdisc:(fun c -> Dumbbell.Droptail c) ~senders:8 ~capacity:4096
  in
  Alcotest.(check int) "no drops with headroom" 0 r.Topology.drops;
  Array.iter
    (fun (f : Metrics.flow_summary) ->
      Alcotest.(check bool) "every sender progresses" true (f.Metrics.packets > 0))
    r.Topology.flows

let test_ecn_reduces_incast_drops () =
  let droptail =
    run_incast ~qdisc:(fun c -> Dumbbell.Droptail c) ~senders:32 ~capacity:256
  in
  let red =
    run_incast
      ~qdisc:(fun c -> Dumbbell.Dctcp_red { capacity = c; threshold = 65 })
      ~senders:32 ~capacity:256
  in
  (* DCTCP's marking throttles senders before the buffer fills, so the
     ECN switch should drop (tail-drop) less than pure DropTail. *)
  Alcotest.(check bool) "ECN mitigates incast" true
    (red.Topology.drops <= droptail.Topology.drops)

let tests =
  [
    Alcotest.test_case "deterministic draws" `Quick test_incast_draws_are_deterministic;
    Alcotest.test_case "synchronized bursts overflow" `Slow test_synchronized_bursts_overflow_small_buffer;
    Alcotest.test_case "big buffer absorbs" `Slow test_big_buffer_absorbs_burst;
    Alcotest.test_case "ECN reduces incast drops" `Slow test_ecn_reduces_incast_drops;
  ]
