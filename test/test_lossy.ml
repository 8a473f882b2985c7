open Remy_sim
open Remy_cc

let table = Packet.create ()
let mk_pkt seq = Packet.acquire table ~flow:0 ~seq ~conn:0 ~flags:0 ~now:0.

let test_zero_rate_transparent () =
  let q = Lossy.create ~table ~inner:(Droptail.create ~table ~capacity:10 ()) ~loss_rate:0. ~seed:1 () in
  for i = 0 to 9 do
    Alcotest.(check bool) "accepted" true (q.Qdisc.enqueue ~now:0. (mk_pkt i))
  done;
  Alcotest.(check int) "no drops" 0 (q.Qdisc.drops ());
  Alcotest.(check int) "all queued" 10 (q.Qdisc.length ())

let test_loss_rate_approximate () =
  let q =
    Lossy.create ~table ~inner:(Droptail.create ~table ~capacity:1_000_000 ()) ~loss_rate:0.1 ~seed:2 ()
  in
  let n = 20_000 in
  let dropped = ref 0 in
  for i = 0 to n - 1 do
    if not (q.Qdisc.enqueue ~now:0. (mk_pkt i)) then incr dropped
  done;
  let rate = float_of_int !dropped /. float_of_int n in
  if Float.abs (rate -. 0.1) > 0.01 then Alcotest.failf "loss rate off: %f" rate;
  Alcotest.(check int) "wrapper counts drops" !dropped (q.Qdisc.drops ())

let test_deterministic () =
  let run seed =
    let q =
      Lossy.create ~table ~inner:(Droptail.create ~table ~capacity:1_000_000 ()) ~loss_rate:0.3 ~seed ()
    in
    List.init 100 (fun i -> q.Qdisc.enqueue ~now:0. (mk_pkt i))
  in
  Alcotest.(check bool) "same seed same pattern" true (run 5 = run 5);
  Alcotest.(check bool) "different seed differs" true (run 5 <> run 6)

let test_inner_drops_included () =
  let q = Lossy.create ~table ~inner:(Droptail.create ~table ~capacity:2 ()) ~loss_rate:0. ~seed:1 () in
  for i = 0 to 4 do
    ignore (q.Qdisc.enqueue ~now:0. (mk_pkt i))
  done;
  Alcotest.(check int) "tail drops surface through wrapper" 3 (q.Qdisc.drops ())

let test_transfer_completes_under_loss () =
  (* End-to-end: a NewReno transfer completes despite 5% random loss. *)
  let flows =
    [|
      {
        Dumbbell.cc = Newreno.factory ();
        rtt = 0.05;
        workload =
          {
            Workload.off_time = Remy_util.Dist.Constant infinity;
            on_spec =
              Workload.By_bytes (Remy_util.Dist.Constant (200. *. 1500.));
          };
        start = `Immediate;
      };
    |]
  in
  let r =
    Sims.dumbbell
      {
        Dumbbell.service = Dumbbell.Rate_mbps 10.;
        qdisc = Dumbbell.With_loss (0.05, Dumbbell.Droptail 1000);
        flows;
        duration = 60.;
        seed = 3;
        min_rto = 0.2;
      }
  in
  Alcotest.(check int) "all 200 segments delivered" 200
    r.Topology.flows.(0).Remy_sim.Metrics.packets

let tests =
  [
    Alcotest.test_case "zero rate transparent" `Quick test_zero_rate_transparent;
    Alcotest.test_case "loss rate approximate" `Quick test_loss_rate_approximate;
    Alcotest.test_case "deterministic given seed" `Quick test_deterministic;
    Alcotest.test_case "inner drops included" `Quick test_inner_drops_included;
    Alcotest.test_case "transfer completes under loss" `Slow test_transfer_completes_under_loss;
  ]
