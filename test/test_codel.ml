open Remy_sim

let table = Packet.create ()
let mk_pkt ?(flow = 0) seq = Packet.acquire table ~flow ~seq ~conn:0 ~flags:0 ~now:0.

let test_no_drops_when_fast () =
  (* Sojourn below the 5 ms target: CoDel must never drop. *)
  let q = Codel.create ~table ~capacity:1000 () in
  let now = ref 0. in
  for i = 0 to 499 do
    ignore (q.Qdisc.enqueue ~now:!now (mk_pkt i));
    now := !now +. 0.001;
    ignore (q.Qdisc.dequeue ~now:!now)
  done;
  Alcotest.(check int) "no drops under target" 0 (q.Qdisc.drops ())

let test_drops_standing_queue () =
  (* A persistent queue with >100 ms sojourn must trigger dropping. *)
  let q = Codel.create ~table ~capacity:1000 () in
  let now = ref 0. in
  let delivered = ref 0 in
  let next_seq = ref 0 in
  (* Arrivals at 2x the departure rate build a standing queue. *)
  for _ = 0 to 4000 do
    ignore (q.Qdisc.enqueue ~now:!now (mk_pkt !next_seq));
    incr next_seq;
    ignore (q.Qdisc.enqueue ~now:!now (mk_pkt !next_seq));
    incr next_seq;
    now := !now +. 0.002;
    if q.Qdisc.dequeue ~now:!now <> Packet.none then incr delivered
  done;
  Alcotest.(check bool) "codel dropped" true (q.Qdisc.drops () > 0);
  Alcotest.(check bool) "still delivering" true (!delivered > 0)

let test_drop_spacing_increases () =
  (* After entering drop state the control law drops progressively more
     often: interval/sqrt(count) shrinks.  Check the count grows. *)
  let q = Codel.create ~table ~capacity:100_000 () in
  let now = ref 0. in
  let next_seq = ref 0 in
  let drops_at_1s = ref 0 in
  for step = 0 to 7999 do
    for _ = 0 to 2 do
      ignore (q.Qdisc.enqueue ~now:!now (mk_pkt !next_seq));
      incr next_seq
    done;
    now := !now +. 0.001;
    ignore (q.Qdisc.dequeue ~now:!now);
    if step = 3999 then drops_at_1s := q.Qdisc.drops ()
  done;
  let first_half = !drops_at_1s in
  let second_half = q.Qdisc.drops () - !drops_at_1s in
  Alcotest.(check bool) "accelerating drop rate" true (second_half > first_half)

let test_codel_keeps_one_mtu () =
  (* CoDel never drops when the backlog is at or below one MTU. *)
  let q = Codel.create ~table ~capacity:10 () in
  ignore (q.Qdisc.enqueue ~now:0. (mk_pkt 0));
  (* Even with a huge sojourn, a single-packet backlog survives. *)
  let h = q.Qdisc.dequeue ~now:10. in
  if h = Packet.none then Alcotest.fail "dropped last packet";
  Alcotest.(check int) "packet survives" 0 table.Packet.seq.{h};
  Alcotest.(check int) "no drops" 0 (q.Qdisc.drops ())

let test_sfq_isolates_flows () =
  (* An aggressive flow and a light flow: DRR must serve the light flow
     roughly its arrival share. *)
  let q = Sfq_codel.create ~table ~capacity:1000 () in
  let now = ref 0. in
  let light_out = ref 0 and heavy_out = ref 0 in
  for i = 0 to 1999 do
    (* Heavy flow floods; light flow sends one packet per round. *)
    ignore (q.Qdisc.enqueue ~now:!now (mk_pkt ~flow:1 i));
    ignore (q.Qdisc.enqueue ~now:!now (mk_pkt ~flow:1 (i + 100_000)));
    ignore (q.Qdisc.enqueue ~now:!now (mk_pkt ~flow:2 i));
    now := !now +. 0.001;
    for _ = 1 to 2 do
      let h = q.Qdisc.dequeue ~now:!now in
      if h <> Packet.none then
        if table.Packet.flow.{h} = 2 then incr light_out else incr heavy_out
    done
  done;
  (* Fair queueing: the light flow gets to send everything it offered
     (~1/3 of service), despite the heavy flow's 2x offered load. *)
  Alcotest.(check bool) "light flow served"
    true
    (float_of_int !light_out > 0.8 *. float_of_int (!light_out + !heavy_out) /. 3.)

let test_sfq_counts () =
  let q = Sfq_codel.create ~table ~capacity:10 ~bins:16 () in
  for i = 0 to 4 do
    ignore (q.Qdisc.enqueue ~now:0. (mk_pkt ~flow:i i))
  done;
  Alcotest.(check int) "length tracks all bins" 5 (q.Qdisc.length ());
  let drained = ref 0 in
  let rec drain () =
    if q.Qdisc.dequeue ~now:0.001 <> Packet.none then begin
      incr drained;
      drain ()
    end
  in
  drain ();
  Alcotest.(check int) "drains everything" 5 !drained;
  Alcotest.(check int) "empty" 0 (q.Qdisc.length ())

let test_sfq_overflow_drops_fattest () =
  let q = Sfq_codel.create ~table ~capacity:10 ~bins:16 () in
  (* Flow 1 hogs the buffer; flow 2 then arrives. *)
  for i = 0 to 9 do
    ignore (q.Qdisc.enqueue ~now:0. (mk_pkt ~flow:1 i))
  done;
  ignore (q.Qdisc.enqueue ~now:0. (mk_pkt ~flow:2 0));
  Alcotest.(check bool) "a drop happened" true (q.Qdisc.drops () > 0);
  Alcotest.(check int) "buffer bounded" 10 (q.Qdisc.length ());
  (* The victim must come from the fat flow, so flow 2's packet survives. *)
  let rec drain acc =
    let h = q.Qdisc.dequeue ~now:0.001 in
    if h = Packet.none then acc else drain (table.Packet.flow.{h} :: acc)
  in
  let flows = drain [] in
  Alcotest.(check bool) "light flow survived" true (List.mem 2 flows)

let tests =
  [
    Alcotest.test_case "no drops under target" `Quick test_no_drops_when_fast;
    Alcotest.test_case "drops a standing queue" `Quick test_drops_standing_queue;
    Alcotest.test_case "control law accelerates" `Quick test_drop_spacing_increases;
    Alcotest.test_case "keeps >= one MTU" `Quick test_codel_keeps_one_mtu;
    Alcotest.test_case "sfqCoDel isolates flows" `Quick test_sfq_isolates_flows;
    Alcotest.test_case "sfqCoDel accounting" `Quick test_sfq_counts;
    Alcotest.test_case "sfqCoDel overflow hits fattest bin" `Quick test_sfq_overflow_drops_fattest;
  ]
