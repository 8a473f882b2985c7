open Remy_cc
open Remy_sim

(* Delayed-ACK tests on a one-flow receiver bank driven by an explicit
   engine. *)

let table = Packet.create ()

let make_receiver ?delack engine =
  let metrics = Metrics.create ~n_flows:1 in
  let acks = ref [] in
  let r =
    Receiver_bank.create ?delack engine ~metrics ~table
      ~ack_sink:(fun _ a -> acks := a :: !acks)
      ~fwd_delay:[| 0. |]
  in
  (r, acks)

let receive r ~now pkt = Receiver_bank.receive r ~now 0 pkt
let pkt ?(conn = 0) seq = Packet.acquire table ~flow:0 ~seq ~conn ~flags:0 ~now:0.1
let cum_ack a = table.Packet.cum_ack.{a}

let test_batches_in_order () =
  let r, acks = make_receiver ~delack:(2, 0.2) (Engine.create ()) in
  receive r ~now:0.2 (pkt 0);
  Alcotest.(check int) "first arrival deferred" 0 (List.length !acks);
  receive r ~now:0.21 (pkt 1);
  Alcotest.(check int) "second arrival flushes" 1 (List.length !acks);
  Alcotest.(check int) "cumulative covers both" 2 (cum_ack (List.hd !acks))

let test_timer_flushes_straggler () =
  let engine = Engine.create () in
  let r, acks = make_receiver ~delack:(2, 0.2) engine in
  Engine.schedule engine 0.1 (fun () -> receive r ~now:0.1 (pkt 0));
  Engine.run engine ~until:1.;
  Alcotest.(check int) "timer flushed the straggler" 1 (List.length !acks);
  Alcotest.(check int) "cum" 1 (cum_ack (List.hd !acks))

let test_out_of_order_immediate () =
  let r, acks = make_receiver ~delack:(4, 0.5) (Engine.create ()) in
  receive r ~now:0.1 (pkt 0);
  (* Segment 1 missing: the out-of-order arrival must be ACKed now so
     the sender's dupACK counter works. *)
  receive r ~now:0.2 (pkt 2);
  Alcotest.(check bool) "dup ack immediate" true (List.length !acks >= 1);
  let cum = (cum_ack (List.hd !acks)) in
  Alcotest.(check int) "cum shows the hole" 1 cum

let test_no_delack_unchanged () =
  let r, acks = make_receiver (Engine.create ()) in
  for i = 0 to 3 do
    receive r ~now:0.1 (pkt i)
  done;
  Alcotest.(check int) "per-packet acks" 4 (List.length !acks)

let test_transfer_with_delack_completes () =
  (* End-to-end: sender completes a transfer against a delayed-ACK
     receiver (the RTO/timer machinery must tolerate batched ACKs). *)
  let engine = Engine.create () in
  let metrics = Metrics.create ~n_flows:1 in
  let senders_cell = ref None in
  let receiver =
    Receiver_bank.create ~delack:(2, 0.2) engine ~metrics ~table
      ~ack_sink:(fun _ a ->
        Engine.schedule_in engine 0.05 (fun () ->
            Senders.handle_ack (Option.get !senders_cell) 0 a;
            Packet.release table a))
      ~fwd_delay:[| 0.05 |]
  in
  let senders =
    Senders.create ~table engine ~metrics ~min_rto:0.2
      [|
        {
          Senders.cc = Newreno.make ();
          workload =
            {
              Workload.off_time = Remy_util.Dist.Constant infinity;
              on_spec = Workload.By_bytes (Remy_util.Dist.Constant (50. *. 1500.));
            };
          start = `Immediate;
          rng = Remy_util.Prng.create 1;
          transmit =
            (fun p ->
              Engine.schedule_in engine 0.05 (fun () ->
                  Receiver_bank.receive receiver ~now:(Engine.now engine) 0 p));
        };
      |]
  in
  senders_cell := Some senders;
  Senders.start senders 0;
  Engine.run engine ~until:30.;
  Alcotest.(check int) "transfer completes" 50 (Senders.cum_acked senders 0)

let test_dumbbell_with_delack () =
  (* The full dumbbell runs with delayed-ACK receivers; throughput stays
     in the same ballpark as per-packet ACKs. *)
  let config =
    Topology.dumbbell ~service:(Topology.Rate_mbps 10.) ~qdisc:(Topology.Droptail 500)
      ~rtts:[| 0.1 |] ~cc:(Newreno.factory ()) ~workload:Workload.saturating
      ~start:`Immediate ~duration:20. ~seed:77 ()
  in
  let plain = Topology.run config in
  let delayed = Topology.run ~delack:(2, 0.2) config in
  let tput r = r.Topology.flows.(0).Metrics.throughput_mbps in
  Alcotest.(check bool) "delack throughput within 30%" true
    (tput delayed > 0.7 *. tput plain)

let tests =
  [
    Alcotest.test_case "batches in-order acks" `Quick test_batches_in_order;
    Alcotest.test_case "dumbbell with delack" `Slow test_dumbbell_with_delack;
    Alcotest.test_case "timer flushes straggler" `Quick test_timer_flushes_straggler;
    Alcotest.test_case "out-of-order acked immediately" `Quick test_out_of_order_immediate;
    Alcotest.test_case "no delack = per-packet" `Quick test_no_delack_unchanged;
    Alcotest.test_case "transfer completes with delack" `Quick test_transfer_with_delack_completes;
  ]
