open Remy_cc
open Remy_sim

(* One-flow receiver bank on a private table; the tests keep the acks
   (never released), so every ack is a distinct handle. *)
let table = Packet.create ()

let make () =
  let metrics = Metrics.create ~n_flows:1 in
  let acks = ref [] in
  let r =
    Receiver_bank.create (Engine.create ()) ~metrics ~table
      ~ack_sink:(fun _ a -> acks := a :: !acks)
      ~fwd_delay:[| 0.001 |]
  in
  (r, metrics, acks)

let receive r ~now pkt = Receiver_bank.receive r ~now 0 pkt
let expected r = Receiver_bank.expected r 0

let pkt ?(conn = 0) ?(retx = false) seq =
  Packet.acquire table ~flow:0 ~seq ~conn
    ~flags:(if retx then Packet.retx else 0)
    ~now:0.5

let cum_ack a = table.Packet.cum_ack.{a}
let has flag a = table.Packet.flags.{a} land flag <> 0

let test_in_order () =
  let r, metrics, acks = make () in
  for s = 0 to 4 do
    receive r ~now:1. (pkt s)
  done;
  Alcotest.(check int) "expected advances" 5 (expected r);
  Alcotest.(check int) "five acks" 5 (List.length !acks);
  let cum = cum_ack (List.hd !acks) in
  Alcotest.(check int) "cumulative" 5 cum;
  Alcotest.(check int) "metrics counted" 5 (Metrics.summary metrics 0).Metrics.packets

let test_gap_generates_dupacks () =
  let r, _, acks = make () in
  receive r ~now:1. (pkt 0);
  (* Segment 1 lost; 2, 3, 4 arrive. *)
  List.iter (fun s -> receive r ~now:1. (pkt s)) [ 2; 3; 4 ];
  let cums = List.rev_map cum_ack !acks in
  Alcotest.(check (list int)) "dup acks at the hole" [ 1; 1; 1; 1 ] cums;
  (* The hole fills: cumulative jumps over the buffered segments. *)
  receive r ~now:2. (pkt 1);
  let cum = cum_ack (List.hd !acks) in
  Alcotest.(check int) "jump after fill" 5 cum

let test_duplicate_data_not_recounted () =
  let r, metrics, acks = make () in
  receive r ~now:1. (pkt 0);
  receive r ~now:1.1 (pkt 0);
  Alcotest.(check int) "still acked" 2 (List.length !acks);
  Alcotest.(check int) "counted once" 1 (Metrics.summary metrics 0).Metrics.packets

let test_new_connection_resets () =
  let r, _, acks = make () in
  List.iter (fun s -> receive r ~now:1. (pkt s)) [ 0; 1; 2 ];
  receive r ~now:2. (pkt ~conn:1 0);
  Alcotest.(check int) "expected reset" 1 (expected r);
  let a = List.hd !acks in
  Alcotest.(check int) "ack carries conn" 1 table.Packet.conn.{a};
  Alcotest.(check int) "fresh cumulative" 1 (cum_ack a)

let test_stale_connection_ignored () =
  let r, metrics, acks = make () in
  receive r ~now:1. (pkt ~conn:2 0);
  let n_acks = List.length !acks in
  (* A leftover packet from connection 1 arrives late: no ack, no count. *)
  receive r ~now:1.5 (pkt ~conn:1 7);
  Alcotest.(check int) "no ack for stale conn" n_acks (List.length !acks);
  Alcotest.(check int) "not counted" 1 (Metrics.summary metrics 0).Metrics.packets

let test_echo_fields () =
  let r, _, acks = make () in
  receive r ~now:1.25 (pkt ~retx:true 0);
  let a = List.hd !acks in
  Alcotest.(check int) "acked seq" 0 table.Packet.seq.{a};
  Alcotest.(check (float 0.)) "echoed send ts" 0.5 table.Packet.sent_at.{a};
  Alcotest.(check bool) "retx flag echoed" true (has Packet.retx a);
  Alcotest.(check (float 0.)) "receiver ts" 1.25 table.Packet.received_at.{a};
  Alcotest.(check bool) "no XCP feedback" true
    (Float.is_nan table.Packet.xcp_feedback.{a})

let test_ecn_echo () =
  let r, _, acks = make () in
  let p = pkt 0 in
  table.Packet.flags.{p} <- table.Packet.flags.{p} lor Packet.ecn_marked;
  receive r ~now:1. p;
  Alcotest.(check bool) "CE echoed" true (has Packet.ecn_marked (List.hd !acks))

let tests =
  [
    Alcotest.test_case "in-order delivery" `Quick test_in_order;
    Alcotest.test_case "gap generates dup acks" `Quick test_gap_generates_dupacks;
    Alcotest.test_case "duplicates not recounted" `Quick test_duplicate_data_not_recounted;
    Alcotest.test_case "new connection resets" `Quick test_new_connection_resets;
    Alcotest.test_case "stale connection ignored" `Quick test_stale_connection_ignored;
    Alcotest.test_case "echo fields" `Quick test_echo_fields;
    Alcotest.test_case "ECN echo" `Quick test_ecn_echo;
  ]
