(* The packet table's free list and counters, on private tables.  A miss
   is an acquire that grows the table; every other acquire is a hit. *)

open Remy_sim

let acquire ?(flags = 0) t seq = Packet.acquire t ~flow:0 ~seq ~conn:0 ~flags ~now:0.
let hits (t : Packet.table) = t.Packet.acquired - t.Packet.misses
let capacity (t : Packet.table) = Bigarray.Array1.dim t.Packet.flow

let test_acquire_reinitialises () =
  let t = Packet.create () in
  let a =
    Packet.acquire t ~flow:1 ~seq:2 ~conn:3 ~now:4.0
      ~flags:(Packet.retx lor Packet.ecn_capable)
  in
  (* Dirty every column a simulation can touch, then recycle. *)
  t.Packet.flags.{a} <- t.Packet.flags.{a} lor Packet.ecn_marked lor Packet.corrupt lor Packet.xcp;
  t.Packet.size.{a} <- 99;
  t.Packet.xcp_cwnd.{a} <- 1.;
  t.Packet.xcp_rtt.{a} <- 0.1;
  t.Packet.xcp_feedback.{a} <- 2.;
  Packet.release t a;
  let b = Packet.acquire t ~flow:9 ~seq:8 ~conn:7 ~now:6.5 ~flags:0 in
  Alcotest.(check int) "same handle recycled" a b;
  Alcotest.(check int) "flow" 9 t.Packet.flow.{b};
  Alcotest.(check int) "seq" 8 t.Packet.seq.{b};
  Alcotest.(check int) "conn" 7 t.Packet.conn.{b};
  Alcotest.(check int) "size" Packet.default_size t.Packet.size.{b};
  Alcotest.(check (float 0.)) "sent_at" 6.5 t.Packet.sent_at.{b};
  let has flag = t.Packet.flags.{b} land flag <> 0 in
  Alcotest.(check bool) "retx cleared" false (has Packet.retx);
  Alcotest.(check bool) "ecn_capable cleared" false (has Packet.ecn_capable);
  Alcotest.(check bool) "ecn_marked cleared" false (has Packet.ecn_marked);
  Alcotest.(check bool) "corrupt cleared" false (has Packet.corrupt);
  Alcotest.(check bool) "xcp cleared" false (has Packet.xcp);
  Alcotest.(check bool) "no XCP feedback" true (Float.is_nan t.Packet.xcp_feedback.{b})

let test_hit_miss_accounting () =
  let t = Packet.create () in
  let cap = capacity t in
  let hs = List.init cap (acquire t) in
  Alcotest.(check int) "a fresh table serves its capacity without a miss" 0
    t.Packet.misses;
  ignore (acquire t cap);
  Alcotest.(check int) "the acquire that grows the table misses" 1 t.Packet.misses;
  Alcotest.(check int) "capacity doubled" (2 * cap) (capacity t);
  Alcotest.(check int) "every other acquire a hit" cap (hits t);
  List.iter (Packet.release t) hs;
  List.iteri (fun seq _ -> ignore (acquire t seq)) hs;
  Alcotest.(check int) "recycles are hits" (2 * cap) (hits t);
  Alcotest.(check int) "misses unchanged" 1 t.Packet.misses

let test_lost_records_replenish () =
  (* Handles the owner loses track of (never released) never starve an
     acquire: the table grows past them, and a reset reclaims them. *)
  let t = Packet.create () in
  let n = (2 * capacity t) + 1 in
  let hs = List.init n (acquire t) in
  Alcotest.(check int) "all distinct" n (List.length (List.sort_uniq compare hs));
  Alcotest.(check int) "grew twice" 2 t.Packet.misses;
  Packet.reset t;
  Alcotest.(check int) "counters restart" 0 (t.Packet.acquired + t.Packet.misses);
  let again = List.init n (acquire t) in
  Alcotest.(check (list int)) "reset hands the lost handles out again" hs again;
  Alcotest.(check int) "no misses after the reset" 0 t.Packet.misses

let test_ack_pool_recycles () =
  (* An acknowledged packet comes back as its own ACK; once the ACK is
     handled and released, the next send reuses the handle. *)
  let t = Packet.create () in
  let acks = ref [] in
  let bank =
    Remy_cc.Receiver_bank.create (Engine.create ()) ~metrics:(Metrics.create ~n_flows:1)
      ~table:t
      ~ack_sink:(fun _ a -> acks := a :: !acks)
      ~fwd_delay:[| 0. |]
  in
  let p = acquire t 0 in
  Remy_cc.Receiver_bank.receive bank ~now:1. 0 p;
  let a = List.hd !acks in
  Alcotest.(check int) "the ACK is the packet's handle" p a;
  Alcotest.(check int) "cumulative ACK written" 1 t.Packet.cum_ack.{a};
  Packet.release t a;
  Alcotest.(check int) "same handle recycled" a (acquire t 1)

let test_pool_grows_past_initial_capacity () =
  let t = Packet.create () in
  let n = (4 * capacity t) + 500 in
  let hs = List.init n (acquire t) in
  List.iter (Packet.release t) hs;
  let misses = t.Packet.misses in
  (* All of them must come back from the free list. *)
  for seq = 0 to n - 1 do
    ignore (acquire t seq)
  done;
  Alcotest.(check int) "full recycling" n (hits t - (n - misses));
  Alcotest.(check int) "no growth" misses t.Packet.misses

let tests =
  [
    Alcotest.test_case "acquire fully re-initialises" `Quick
      test_acquire_reinitialises;
    Alcotest.test_case "hit/miss accounting" `Quick test_hit_miss_accounting;
    Alcotest.test_case "lost records replenish via misses" `Quick
      test_lost_records_replenish;
    Alcotest.test_case "ack records recycle" `Quick test_ack_pool_recycles;
    Alcotest.test_case "free list grows past initial capacity" `Quick
      test_pool_grows_past_initial_capacity;
  ]
