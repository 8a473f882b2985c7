open Remy_sim

let table = Packet.create ()
let mk_pkt seq = Packet.acquire table ~flow:0 ~seq ~conn:0 ~flags:0 ~now:0.

let test_constant_rate_timing () =
  let engine = Engine.create () in
  let qdisc = Droptail.create ~table ~capacity:100 () in
  let deliveries = ref [] in
  let link =
    Link.create_constant engine ~table ~qdisc ~bytes_per_sec:15000.
      ~sink:(fun h -> deliveries := (Engine.now engine, table.Packet.seq.{h}) :: !deliveries)
  in
  (* Two packets of 1500 B at 15 kB/s: 0.1 s each, back to back. *)
  Link.send link (mk_pkt 0);
  Link.send link (mk_pkt 1);
  Engine.run engine ~until:1.;
  match List.rev !deliveries with
  | [ (t0, 0); (t1, 1) ] ->
    Alcotest.(check (float 1e-9)) "first tx time" 0.1 t0;
    Alcotest.(check (float 1e-9)) "second queued behind" 0.2 t1
  | other -> Alcotest.failf "unexpected deliveries: %d" (List.length other)

let test_idle_restart () =
  let engine = Engine.create () in
  let qdisc = Droptail.create ~table ~capacity:100 () in
  let deliveries = ref [] in
  let link =
    Link.create_constant engine ~table ~qdisc ~bytes_per_sec:15000.
      ~sink:(fun _ -> deliveries := Engine.now engine :: !deliveries)
  in
  Link.send link (mk_pkt 0);
  Engine.run engine ~until:1.;
  (* Link went idle; a later packet restarts service cleanly. *)
  Engine.schedule engine 2.0 (fun () -> Link.send link (mk_pkt 1));
  Engine.run engine ~until:3.;
  Alcotest.(check (list (float 1e-9))) "idle restart" [ 0.1; 2.1 ] (List.rev !deliveries)

let test_delivered_counters () =
  let engine = Engine.create () in
  let qdisc = Droptail.create ~table ~capacity:100 () in
  let link =
    Link.create_constant engine ~table ~qdisc ~bytes_per_sec:1e6 ~sink:(fun _ -> ())
  in
  for i = 0 to 9 do
    Link.send link (mk_pkt i)
  done;
  Engine.run engine ~until:1.;
  Alcotest.(check int) "packets" 10 (Link.delivered_packets link);
  Alcotest.(check int) "bytes" (10 * Packet.default_size) (Link.delivered_bytes link)

let test_trace_link_follows_instants () =
  let engine = Engine.create () in
  let qdisc = Droptail.create ~table ~capacity:100 () in
  let gaps = [| 0.5; 0.25; 0.25 |] in
  let i = ref 0 in
  let next_gap () =
    let g = gaps.(!i mod Array.length gaps) in
    incr i;
    g
  in
  let deliveries = ref [] in
  let link =
    Link.create_trace engine ~table ~qdisc ~next_gap
      ~sink:(fun h -> deliveries := (Engine.now engine, table.Packet.seq.{h}) :: !deliveries)
  in
  (* Three packets enqueued immediately; they leave exactly at the trace
     instants 0.5, 0.75, 1.0. *)
  Link.send link (mk_pkt 0);
  Link.send link (mk_pkt 1);
  Link.send link (mk_pkt 2);
  Engine.run engine ~until:2.;
  match List.rev !deliveries with
  | [ (t0, 0); (t1, 1); (t2, 2) ] ->
    Alcotest.(check (float 1e-9)) "instant 1" 0.5 t0;
    Alcotest.(check (float 1e-9)) "instant 2" 0.75 t1;
    Alcotest.(check (float 1e-9)) "instant 3" 1.0 t2
  | _ -> Alcotest.fail "wrong delivery count"

let test_trace_link_wastes_idle_instants () =
  (* A delivery opportunity with an empty queue is lost, not banked —
     the paper's cellular replay semantics. *)
  let engine = Engine.create () in
  let qdisc = Droptail.create ~table ~capacity:100 () in
  let next_gap () = 0.5 in
  let deliveries = ref [] in
  let link =
    Link.create_trace engine ~table ~qdisc ~next_gap
      ~sink:(fun _ -> deliveries := Engine.now engine :: !deliveries)
  in
  (* First opportunity at 0.5 is wasted; the packet arrives at 0.7 and
     must wait for the 1.0 opportunity. *)
  Engine.schedule engine 0.7 (fun () -> Link.send link (mk_pkt 0));
  Engine.run engine ~until:2.;
  Alcotest.(check (list (float 1e-9))) "waits for next instant" [ 1.0 ] (List.rev !deliveries)

let test_rate_conversions () =
  Alcotest.(check (float 1e-6)) "bytes/s of 12 Mbps" 1.5e6 (Link.bytes_per_sec_of_mbps 12.);
  Alcotest.(check (float 1e-6)) "pps of 15 Mbps" (15e6 /. 8. /. 1500.) (Link.pps_of_mbps 15.)

let tests =
  [
    Alcotest.test_case "constant rate timing" `Quick test_constant_rate_timing;
    Alcotest.test_case "idle restart" `Quick test_idle_restart;
    Alcotest.test_case "delivery counters" `Quick test_delivered_counters;
    Alcotest.test_case "trace link follows instants" `Quick test_trace_link_follows_instants;
    Alcotest.test_case "trace link wastes idle instants" `Quick test_trace_link_wastes_idle_instants;
    Alcotest.test_case "rate conversions" `Quick test_rate_conversions;
  ]
