(* Runs against the per-domain packet table: what one run leaves behind
   in the table, or does to it by raising or nesting, must never show in
   another run's results, and every handle must be accounted for. *)

open Remy_cc
open Remy_sim

let parse_faults s =
  match Remy_faults.Spec.parse s with Ok f -> f | Error e -> invalid_arg e

let dumbbell ?(qdisc = Topology.Droptail 1000) ?(n = 2)
    ?(workload = Workload.by_bytes ~mean_bytes:1e5 ~mean_off:0.5) ?(start = `Off_draw)
    ?(duration = 4.) cc =
  Topology.dumbbell ~service:(Topology.Rate_mbps 15.) ~qdisc ~rtts:(Array.make n 0.15) ~cc
    ~workload ~start ~duration ~seed:17 ()

(* A RemyCC that grows its window by half per ACK and paces at 2 us
   floods the unlimited design-phase queue: well over 2^16 packets. *)
let flood =
  let tree =
    Remy.Rule_tree.create
      ~initial_action:{ Remy.Action.multiple = 1.5; increment = 1.; intersend_ms = 0.002 }
      ()
  in
  dumbbell ~qdisc:(Topology.Droptail Qdisc.unlimited_capacity) ~n:1
    ~workload:Workload.saturating ~start:`Immediate ~duration:0.8
    (Remy.Remycc.factory tree)

let xcp = dumbbell ~qdisc:(Topology.Xcp 1000) (Xcp.factory ())
let sfqcodel = dumbbell ~qdisc:(Topology.Sfq_codel 1000) (Cubic.factory ())
let lossy = dumbbell ~qdisc:(Topology.With_loss (0.02, Topology.Droptail 1000)) (Newreno.factory ())

let parking_lot =
  Topology.parking_lot ~n:4 ~cc:(Newreno.factory ())
    ~workload:(Workload.by_bytes ~mean_bytes:1e5 ~mean_off:0.3)
    ~start:`Off_draw ~duration:4. ~seed:5 ()

let dup_corrupt = parse_faults "dup:0.02;corrupt:0.01"

let faulted =
  parse_faults "outage:1+0.5+2,drop;ge:0.01,0.25,0.5;reorder:0.02,0.005;dup:0.02;corrupt:0.01"

let runs =
  [
    ("queue flood", (flood, None));
    ("xcp", (xcp, None));
    ("sfqcodel", (sfqcodel, None));
    ("parking-lot dup corrupt", (parking_lot, Some dup_corrupt));
  ]

let render (r : Topology.result) =
  let b = Buffer.create 256 in
  Printf.bprintf b "%d %d %d %d %.17g\n" r.Topology.drops r.Topology.delivered
    r.Topology.received r.Topology.in_flight r.Topology.bottleneck_utilization;
  Array.iter
    (fun (f : Metrics.flow_summary) ->
      Printf.bprintf b "%.17g %.17g %d %d %.17g\n" f.Metrics.throughput_mbps
        f.Metrics.mean_queueing_delay_ms f.Metrics.bytes f.Metrics.packets
        f.Metrics.on_time)
    r.Topology.flows;
  Buffer.contents b

let run ?delivery_hook ?faults config = render (Topology.run ?delivery_hook ?faults config)

let test_back_to_back_matches_fresh_domains () =
  let fresh =
    List.map
      (fun (_, (config, faults)) -> Domain.join (Domain.spawn (fun () -> run ?faults config)))
      runs
  in
  (* Twice through, so every run also follows every other one. *)
  for _ = 1 to 2 do
    List.iter2
      (fun (name, (config, faults)) expected ->
        Alcotest.(check string) name expected (run ?faults config))
      runs fresh
  done;
  Alcotest.(check bool) "the flood outgrew 2^16 handles" true
    (Domain.join
       (Domain.spawn (fun () ->
            ignore (run flood);
            (Packet.domain_table ()).Packet.acquired > 1 lsl 16)))

exception Stop

let test_raising_run_leaves_next_unchanged () =
  let expected = run ~faults:dup_corrupt parking_lot in
  let acquired = (Packet.domain_table ()).Packet.acquired in
  let deliveries = ref 0 in
  let delivery_hook ~flow:_ ~now:_ ~seq:_ =
    incr deliveries;
    if !deliveries = 200 then raise Stop
  in
  (match run ~delivery_hook flood with
  | _ -> Alcotest.fail "the hook did not raise"
  | exception Stop -> ());
  Alcotest.(check string) "next run unchanged" expected (run ~faults:dup_corrupt parking_lot);
  (* The raise released the domain's table: the next run claimed it
     again rather than falling back to a private one. *)
  Alcotest.(check int) "the domain's table served the next run" acquired
    (Packet.domain_table ()).Packet.acquired

let test_nested_run_leaves_outer_unchanged () =
  let plain = run ~delivery_hook:(fun ~flow:_ ~now:_ ~seq:_ -> ()) sfqcodel in
  let inner = run xcp in
  let deliveries = ref 0 in
  let delivery_hook ~flow:_ ~now:_ ~seq:_ =
    incr deliveries;
    if !deliveries mod 100 = 0 then
      Alcotest.(check string) "nested run" inner (run xcp)
  in
  let nested = run ~delivery_hook sfqcodel in
  Alcotest.(check bool) "the hook nested runs" true (!deliveries >= 100);
  Alcotest.(check string) "outer run unchanged" plain nested

let test_conservation () =
  List.iter
    (fun (name, config, faults) ->
      let r = Topology.run ?faults config in
      let t = Packet.domain_table () in
      Alcotest.(check bool) (name ^ ": released packets") true (t.Packet.released > 0);
      Alcotest.(check int)
        (name ^ ": acquired - released = queued + held + on a line + in service")
        r.Topology.in_flight
        (t.Packet.acquired - t.Packet.released))
    [
      ("lossy", lossy, None);
      ("faulted", dumbbell ~duration:6. (Newreno.factory ()), Some faulted);
      ("faulted parking lot", parking_lot, Some faulted);
      ("xcp", xcp, None);
      ("queue flood", flood, None);
    ]

let test_double_release_raises () =
  let t = Packet.create () in
  let h = Packet.acquire t ~flow:0 ~seq:0 ~conn:0 ~flags:0 ~now:0. in
  Packet.release t h;
  Alcotest.check_raises "second release"
    (Invalid_argument (Printf.sprintf "Packet.release: handle %d is not live" h))
    (fun () -> Packet.release t h)

(* A second run of the same config on the same domain finds the table
   as large as the first left it: after a flood too, every acquire is a
   hit. *)
let test_second_run_no_misses () =
  List.iter
    (fun (name, config) ->
      let first = run config in
      let before = Remy_obs.Counters.snapshot () in
      let second = run config in
      let d = Remy_obs.Counters.diff (Remy_obs.Counters.snapshot ()) before in
      Alcotest.(check string) (name ^ ": same results") first second;
      Alcotest.(check int) (name ^ ": no table growth") 0
        (Packet.domain_table ()).Packet.misses;
      Alcotest.(check int) (name ^ ": no misses reported") 0 d.Remy_obs.Counters.pool_misses;
      Alcotest.(check bool) (name ^ ": hits reported") true (d.Remy_obs.Counters.pool_hits > 0))
    [ ("cubic", dumbbell ~duration:6. (Cubic.factory ())); ("flood", flood) ]

let test_reset_keeps_capacity () =
  let t = Packet.create () in
  let n = (1 lsl 16) + 11 in
  let fill () =
    for seq = 0 to n - 1 do
      ignore (Packet.acquire t ~flow:0 ~seq ~conn:0 ~flags:0 ~now:0.)
    done
  in
  fill ();
  let cap = Bigarray.Array1.dim t.Packet.flow in
  Alcotest.(check bool) "grown past 2^16" true (cap > 1 lsl 16);
  Packet.reset t;
  let dim = Bigarray.Array1.dim in
  List.iter
    (fun (column, dim) -> Alcotest.(check int) (column ^ " keeps its dimension") cap dim)
    [
      ("flow", dim t.Packet.flow);
      ("seq", dim t.Packet.seq);
      ("conn", dim t.Packet.conn);
      ("size", dim t.Packet.size);
      ("flags", dim t.Packet.flags);
      ("sent_at", dim t.Packet.sent_at);
      ("xcp_cwnd", dim t.Packet.xcp_cwnd);
      ("xcp_rtt", dim t.Packet.xcp_rtt);
      ("xcp_feedback", dim t.Packet.xcp_feedback);
      ("cum_ack", dim t.Packet.cum_ack);
      ("received_at", dim t.Packet.received_at);
      ("free", dim t.Packet.free);
    ];
  List.iter
    (fun (field, v) -> Alcotest.(check int) (field ^ " restarts") 0 v)
    [
      ("fresh", t.Packet.fresh);
      ("n_free", t.Packet.n_free);
      ("acquired", t.Packet.acquired);
      ("released", t.Packet.released);
      ("misses", t.Packet.misses);
    ];
  fill ();
  Alcotest.(check int) "refilling makes no miss" 0 t.Packet.misses

let tests =
  [
    Alcotest.test_case "back-to-back runs match fresh domains" `Quick
      test_back_to_back_matches_fresh_domains;
    Alcotest.test_case "raising run leaves the next unchanged" `Quick
      test_raising_run_leaves_next_unchanged;
    Alcotest.test_case "nested run leaves the outer unchanged" `Quick
      test_nested_run_leaves_outer_unchanged;
    Alcotest.test_case "acquired - released = in flight" `Slow test_conservation;
    Alcotest.test_case "double release raises" `Quick test_double_release_raises;
    Alcotest.test_case "second run reports no misses" `Quick test_second_run_no_misses;
    Alcotest.test_case "reset keeps capacity" `Quick test_reset_keeps_capacity;
  ]
