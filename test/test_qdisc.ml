open Remy_sim

let table = Packet.create ()

let mk_pkt ?(flow = 0) ?(ecn = false) seq =
  Packet.acquire table ~flow ~seq ~conn:0
    ~flags:(if ecn then Packet.ecn_capable else 0)
    ~now:0.

let marked h = table.Packet.flags.{h} land Packet.ecn_marked <> 0

let dequeue_exn q =
  let h = q.Qdisc.dequeue ~now:0. in
  if h = Packet.none then Alcotest.fail "unexpected empty";
  h

let test_droptail_fifo () =
  let q = Droptail.create ~table ~capacity:10 () in
  for i = 0 to 4 do
    Alcotest.(check bool) "accepted" true (q.Qdisc.enqueue ~now:0. (mk_pkt i))
  done;
  Alcotest.(check int) "length" 5 (q.Qdisc.length ());
  for i = 0 to 4 do
    Alcotest.(check int) "FIFO order" i table.Packet.seq.{dequeue_exn q}
  done;
  Alcotest.(check int) "drained" Packet.none (q.Qdisc.dequeue ~now:0.)

let test_droptail_capacity () =
  let q = Droptail.create ~table ~capacity:3 () in
  for i = 0 to 2 do
    ignore (q.Qdisc.enqueue ~now:0. (mk_pkt i))
  done;
  Alcotest.(check bool) "tail drop" false (q.Qdisc.enqueue ~now:0. (mk_pkt 3));
  Alcotest.(check int) "drop counted" 1 (q.Qdisc.drops ());
  Alcotest.(check int) "queue unchanged" 3 (q.Qdisc.length ())

let test_droptail_bytes () =
  let q = Droptail.create ~table ~capacity:10 () in
  ignore (q.Qdisc.enqueue ~now:0. (mk_pkt 0));
  ignore (q.Qdisc.enqueue ~now:0. (mk_pkt 1));
  Alcotest.(check int) "bytes" (2 * Packet.default_size) (q.Qdisc.byte_length ());
  ignore (q.Qdisc.dequeue ~now:0.);
  Alcotest.(check int) "bytes after dequeue" Packet.default_size (q.Qdisc.byte_length ())

let test_unlimited () =
  let q = Droptail.create ~table ~capacity:Qdisc.unlimited_capacity () in
  for i = 0 to 99_999 do
    if not (q.Qdisc.enqueue ~now:0. (mk_pkt i)) then Alcotest.fail "dropped"
  done;
  Alcotest.(check int) "no drops" 0 (q.Qdisc.drops ())

let test_dctcp_red_marks_above_threshold () =
  let q = Red.create_dctcp ~table ~capacity:100 ~threshold:5 () in
  (* Fill to the threshold: no marks. *)
  for i = 0 to 4 do
    ignore (q.Qdisc.enqueue ~now:0. (mk_pkt ~ecn:true i))
  done;
  let marked_early =
    List.init 5 (fun _ -> dequeue_exn q) |> List.filter marked
  in
  Alcotest.(check int) "no marks below K" 0 (List.length marked_early);
  (* Fill past the threshold: arrivals above K are marked. *)
  for i = 0 to 9 do
    ignore (q.Qdisc.enqueue ~now:0. (mk_pkt ~ecn:true i))
  done;
  let marked =
    List.init 10 (fun _ -> dequeue_exn q) |> List.filter marked
  in
  Alcotest.(check int) "arrivals above K marked" 5 (List.length marked)

let test_dctcp_red_tail_drop () =
  let q = Red.create_dctcp ~table ~capacity:4 ~threshold:2 () in
  for i = 0 to 3 do
    ignore (q.Qdisc.enqueue ~now:0. (mk_pkt ~ecn:true i))
  done;
  Alcotest.(check bool) "full queue drops" false
    (q.Qdisc.enqueue ~now:0. (mk_pkt ~ecn:true 4))

let test_red_marks_under_load () =
  let q =
    Red.create ~table ~capacity:1000 ~min_th:5. ~max_th:15. ~max_p:1.0 ~weight:0.5 ~seed:1 ()
  in
  let n_marked = ref 0 and dropped = ref 0 in
  for i = 0 to 199 do
    let p = mk_pkt ~ecn:true i in
    if q.Qdisc.enqueue ~now:0. p then begin
      if marked p then incr n_marked
    end
    else incr dropped;
    (* Keep the queue long so the average crosses max_th. *)
    if q.Qdisc.length () > 30 then ignore (q.Qdisc.dequeue ~now:0.)
  done;
  Alcotest.(check bool) "RED marked ECN-capable packets" true (!n_marked > 0);
  Alcotest.(check int) "ECN-capable packets not early-dropped" 0 !dropped

let test_red_drops_non_ecn () =
  let q =
    Red.create ~table ~capacity:1000 ~min_th:2. ~max_th:6. ~max_p:1.0 ~weight:1.0 ~seed:1 ()
  in
  let dropped = ref 0 in
  for i = 0 to 99 do
    if not (q.Qdisc.enqueue ~now:0. (mk_pkt i)) then incr dropped
  done;
  Alcotest.(check bool) "non-ECN flows see early drops" true (!dropped > 0)

let tests =
  [
    Alcotest.test_case "droptail FIFO" `Quick test_droptail_fifo;
    Alcotest.test_case "droptail capacity" `Quick test_droptail_capacity;
    Alcotest.test_case "droptail byte accounting" `Quick test_droptail_bytes;
    Alcotest.test_case "unlimited capacity" `Quick test_unlimited;
    Alcotest.test_case "DCTCP RED marks above K" `Quick test_dctcp_red_marks_above_threshold;
    Alcotest.test_case "DCTCP RED tail-drops at capacity" `Quick test_dctcp_red_tail_drop;
    Alcotest.test_case "classic RED marks under load" `Quick test_red_marks_under_load;
    Alcotest.test_case "classic RED drops non-ECN" `Quick test_red_drops_non_ecn;
  ]
