(* Property tests over queue disciplines: random enqueue/dequeue
   interleavings must preserve counting invariants for every
   implementation. *)

open Remy_sim

let mk_pkt table ~flow seq = Packet.acquire table ~flow ~seq ~conn:0 ~flags:0 ~now:0.

(* Interpret a random op list against a qdisc, tracking time; check that
   accepted - dequeued - codel_drops = final length, that byte/packet
   accounting agree, and that the qdisc released every handle it
   dropped, and only those: with dequeued handles released here, the
   table's live handles are exactly the queued ones. *)
let run_ops make_qdisc ops =
  let table = Packet.create () in
  let q = make_qdisc table in
  let now = ref 0. in
  let accepted = ref 0 in
  let dequeued = ref 0 in
  let seq = ref 0 in
  List.iter
    (fun op ->
      now := !now +. 0.001;
      if op then begin
        incr seq;
        if q.Qdisc.enqueue ~now:!now (mk_pkt table ~flow:(!seq mod 7) !seq) then
          incr accepted
      end
      else
        let h = q.Qdisc.dequeue ~now:!now in
        if h <> Packet.none then begin
          incr dequeued;
          Packet.release table h
        end)
    ops;
  let len = q.Qdisc.length () in
  let bytes = q.Qdisc.byte_length () in
  (* Some disciplines (CoDel) drop at dequeue time; those drops are in
     drops() but were counted as accepted.  The fundamental conservation
     is: accepted = dequeued + still-queued + post-accept drops. *)
  let post_accept_drops = !accepted - !dequeued - len in
  len >= 0
  && bytes = len * Packet.default_size
  && post_accept_drops >= 0
  && table.Packet.acquired - table.Packet.released = len

let qdisc_cases =
  [
    ("droptail", fun table -> Droptail.create ~table ~capacity:50 ());
    ("codel", fun table -> Codel.create ~table ~capacity:50 ());
    ("sfqcodel", fun table -> Sfq_codel.create ~table ~capacity:50 ~bins:16 ());
    ( "dctcp-red",
      fun table -> Red.create_dctcp ~table ~capacity:50 ~threshold:10 () );
    ( "red",
      fun table ->
        Red.create ~table ~capacity:50 ~min_th:5. ~max_th:20. ~max_p:0.5 ~weight:0.1
          ~seed:3 () );
  ]

let prop_conservation (name, make_qdisc) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: packet/byte conservation" name)
    ~count:100
    QCheck.(list_of_size Gen.(int_range 0 400) bool)
    (fun ops -> run_ops make_qdisc ops)

let drain_everything (name, make_qdisc) =
  Alcotest.test_case (name ^ ": drains to empty") `Quick (fun () ->
      let table = Packet.create () in
      let q = make_qdisc table in
      for i = 0 to 29 do
        ignore (q.Qdisc.enqueue ~now:0. (mk_pkt table ~flow:(i mod 5) i))
      done;
      let rec drain n =
        if n > 10_000 then Alcotest.fail "did not drain";
        if q.Qdisc.dequeue ~now:0.001 <> Packet.none then drain (n + 1)
      in
      drain 0;
      Alcotest.(check int) "empty" 0 (q.Qdisc.length ());
      Alcotest.(check int) "no bytes" 0 (q.Qdisc.byte_length ()))

let tests =
  List.map (fun case -> QCheck_alcotest.to_alcotest (prop_conservation case)) qdisc_cases
  @ List.map drain_everything qdisc_cases
