open Remy_cc
open Remy_sim
open Remy_util

(* Direct sender<->receiver harness with injectable loss: [should_drop]
   sees every transmission (packet + transmission count for that seq)
   and decides its fate.  One-way delay is [delay] in each direction. *)
(* What the harness saw of one transmission: the handle itself is
   recycled once the packet is acknowledged or dropped. *)
type sent = { seq : int; conn : int; sent_at : float; retx : bool }

type harness = {
  engine : Engine.t;
  table : Packet.table;
  sender : Tcp_sender.t;
  metrics : Metrics.t;
  mutable transmissions : sent list;  (* newest first *)
}

let make_harness ?(delay = 0.05) ?(min_rto = 0.2) ?(should_drop = fun _ _ -> false)
    ?(workload = Workload.saturating) ?(start = `Immediate) cc =
  let engine = Engine.create () in
  let metrics = Metrics.create ~n_flows:1 in
  let rng = Prng.create 42 in
  let tx_counts : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let sender_cell = ref None in
  let table = Packet.create () in
  let receiver =
    Receiver_bank.create engine ~metrics ~table
      ~ack_sink:(fun _ ack ->
        Engine.schedule_in engine delay (fun () ->
            Tcp_sender.handle_ack (Option.get !sender_cell) ack;
            Packet.release table ack))
      ~fwd_delay:[| delay |]
  in
  let h = ref None in
  let transmit p =
    let pkt =
      {
        seq = table.Packet.seq.{p};
        conn = table.Packet.conn.{p};
        sent_at = table.Packet.sent_at.{p};
        retx = table.Packet.flags.{p} land Packet.retx <> 0;
      }
    in
    (match !h with Some h -> h.transmissions <- pkt :: h.transmissions | None -> ());
    let key = (pkt.conn, pkt.seq) in
    let count = (try Hashtbl.find tx_counts key with Not_found -> 0) + 1 in
    Hashtbl.replace tx_counts key count;
    if should_drop pkt count then Packet.release table p
    else
      Engine.schedule_in engine delay (fun () ->
          Receiver_bank.receive receiver ~now:(Engine.now engine) 0 p)
  in
  let sender =
    Tcp_sender.create ~table engine
      { Tcp_sender.flow = 0; cc; rtt = 2. *. delay; workload; start; min_rto }
      ~transmit ~metrics ~rng
  in
  sender_cell := Some sender;
  let harness = { engine; table; sender; metrics; transmissions = [] } in
  h := Some harness;
  harness

let fixed_transfer n =
  {
    Workload.off_time = Remy_util.Dist.Constant infinity;
    on_spec = Workload.By_bytes (Remy_util.Dist.Constant (float_of_int (n * Packet.default_size)));
  }

let test_lossless_transfer_completes () =
  let h = make_harness ~workload:(fixed_transfer 50) (Newreno.make ()) in
  Tcp_sender.start h.sender;
  Engine.run h.engine ~until:30.;
  Alcotest.(check int) "all 50 segments acked" 50 (Tcp_sender.cum_acked h.sender);
  Alcotest.(check bool) "flow completed (off)" false (Tcp_sender.is_on h.sender);
  Alcotest.(check int) "no retransmissions" 0 (Tcp_sender.retransmissions h.sender);
  let s = Metrics.summary h.metrics 0 in
  Alcotest.(check int) "receiver got 50" 50 s.Metrics.packets

let test_fast_retransmit_recovers () =
  (* Drop the first transmission of segment 10 only. *)
  let should_drop pkt count = pkt.seq = 10 && count = 1 in
  let h = make_harness ~should_drop ~workload:(fixed_transfer 60) (Newreno.make ()) in
  Tcp_sender.start h.sender;
  Engine.run h.engine ~until:30.;
  Alcotest.(check int) "transfer completes" 60 (Tcp_sender.cum_acked h.sender);
  Alcotest.(check bool) "retransmitted" true (Tcp_sender.retransmissions h.sender >= 1);
  Alcotest.(check int) "no timeout needed" 0 (Tcp_sender.timeouts h.sender)

let test_rto_recovers_tail_loss () =
  (* Drop the first transmission of the last segment: no dupACKs can
     arrive, so only the RTO can recover it. *)
  let should_drop pkt count = pkt.seq = 19 && count = 1 in
  let h = make_harness ~should_drop ~workload:(fixed_transfer 20) (Newreno.make ()) in
  Tcp_sender.start h.sender;
  Engine.run h.engine ~until:30.;
  Alcotest.(check int) "transfer completes" 20 (Tcp_sender.cum_acked h.sender);
  Alcotest.(check bool) "timeout fired" true (Tcp_sender.timeouts h.sender >= 1)

let test_burst_loss_recovers () =
  (* Drop a 12-segment burst once: triggers recovery and possibly RTO
     go-back-N; the transfer must still complete. *)
  let should_drop pkt count = pkt.seq >= 20 && pkt.seq < 32 && count = 1 in
  let h = make_harness ~should_drop ~workload:(fixed_transfer 80) (Newreno.make ()) in
  Tcp_sender.start h.sender;
  Engine.run h.engine ~until:60.;
  Alcotest.(check int) "transfer completes" 80 (Tcp_sender.cum_acked h.sender)

let test_karn_no_rtt_from_retx () =
  (* All RTT samples must come from first transmissions: make the
     retransmitted copy arrive with huge delay and check srtt stays
     reasonable. *)
  let should_drop pkt count = pkt.seq = 5 && count = 1 in
  let h = make_harness ~should_drop ~workload:(fixed_transfer 40) (Newreno.make ()) in
  Tcp_sender.start h.sender;
  Engine.run h.engine ~until:30.;
  match Tcp_sender.srtt h.sender with
  | Some srtt -> Alcotest.(check bool) "srtt near 100 ms" true (srtt < 0.3)
  | None -> Alcotest.fail "no srtt"

let test_window_limits_flight () =
  (* A fixed window of 4: never more than 4 outstanding. *)
  let fixed_cc =
    {
      Cc.name = "fixed";
      ecn_capable = false;
      reset = (fun ~now:_ -> ());
      on_ack = (fun _ -> ());
      on_loss = (fun ~now:_ -> ());
      on_timeout = (fun ~now:_ -> ());
      window = (fun () -> 4.);
      intersend = (fun () -> 0.);
      stamp = Cc.no_stamp;
    }
  in
  let h = make_harness ~workload:(fixed_transfer 40) fixed_cc in
  let max_flight = ref 0 in
  Tcp_sender.start h.sender;
  (* Sample in-flight after every event via a polling tick. *)
  let rec probe () =
    max_flight := max !max_flight (Tcp_sender.in_flight h.sender);
    if Engine.now h.engine < 20. then Engine.schedule_in h.engine 0.001 probe
  in
  probe ();
  Engine.run h.engine ~until:20.;
  Alcotest.(check bool) "window respected" true (!max_flight <= 4);
  Alcotest.(check int) "transfer completes" 40 (Tcp_sender.cum_acked h.sender)

let test_pacing_spacing () =
  (* intersend of 30 ms: consecutive sends at least that far apart. *)
  let paced_cc =
    {
      Cc.name = "paced";
      ecn_capable = false;
      reset = (fun ~now:_ -> ());
      on_ack = (fun _ -> ());
      on_loss = (fun ~now:_ -> ());
      on_timeout = (fun ~now:_ -> ());
      window = (fun () -> 100.);
      intersend = (fun () -> 0.030);
      stamp = Cc.no_stamp;
    }
  in
  let h = make_harness ~workload:(fixed_transfer 20) paced_cc in
  Tcp_sender.start h.sender;
  Engine.run h.engine ~until:10.;
  let sends = List.rev_map (fun p -> p.sent_at) h.transmissions in
  let rec check = function
    | a :: (b :: _ as tl) ->
      if b -. a < 0.030 -. 1e-9 then Alcotest.failf "pacing violated: %f" (b -. a);
      check tl
    | _ -> ()
  in
  check sends;
  Alcotest.(check int) "transfer completes" 20 (Tcp_sender.cum_acked h.sender)

let test_on_off_connections () =
  (* Two on-periods: fresh connection counters and sequence space. *)
  let w =
    {
      Workload.off_time = Remy_util.Dist.Constant 0.5;
      on_spec = Workload.By_bytes (Remy_util.Dist.Constant (float_of_int (5 * Packet.default_size)));
    }
  in
  let h = make_harness ~workload:w (Newreno.make ()) in
  Tcp_sender.start h.sender;
  Engine.run h.engine ~until:5.;
  Alcotest.(check bool) "several connections" true
    (Tcp_sender.connections_started h.sender >= 3);
  let conns =
    List.sort_uniq compare (List.map (fun p -> p.conn) h.transmissions)
  in
  Alcotest.(check bool) "multiple conns on the wire" true (List.length conns >= 3);
  (* Sequence numbers restart per connection. *)
  List.iter
    (fun c ->
      let seqs =
        List.filter_map
          (fun p -> if p.conn = c && not p.retx then Some p.seq else None)
          h.transmissions
      in
      if seqs <> [] then
        Alcotest.(check int) "seqs start at 0" 0 (List.fold_left min max_int seqs))
    conns

let test_by_time_flow_stops () =
  let w =
    {
      Workload.off_time = Remy_util.Dist.Constant infinity;
      on_spec = Workload.By_time (Remy_util.Dist.Constant 1.0);
    }
  in
  let h = make_harness ~workload:w (Newreno.make ()) in
  Tcp_sender.start h.sender;
  Engine.run h.engine ~until:5.;
  Alcotest.(check bool) "off after deadline" false (Tcp_sender.is_on h.sender);
  let last_send =
    match h.transmissions with [] -> 0. | p :: _ -> p.sent_at
  in
  Alcotest.(check bool) "no sends after deadline" true (last_send <= 1.0 +. 1e-9)

let test_start_immediate_vs_off_draw () =
  let h = make_harness ~start:`Immediate ~workload:(fixed_transfer 1) (Newreno.make ()) in
  Tcp_sender.start h.sender;
  Alcotest.(check bool) "on at t=0" true (Tcp_sender.is_on h.sender)

let test_zero_window_cc_still_progresses () =
  (* A congestion controller that demands a zero (or negative) window
     must not deadlock the connection: the sender floors the effective
     window at one segment. *)
  let zero_cc =
    {
      Cc.name = "zero";
      ecn_capable = false;
      reset = (fun ~now:_ -> ());
      on_ack = (fun _ -> ());
      on_loss = (fun ~now:_ -> ());
      on_timeout = (fun ~now:_ -> ());
      window = (fun () -> 0.);
      intersend = (fun () -> 0.);
      stamp = Cc.no_stamp;
    }
  in
  let h = make_harness ~workload:(fixed_transfer 10) zero_cc in
  Tcp_sender.start h.sender;
  Engine.run h.engine ~until:30.;
  Alcotest.(check int) "transfer still completes" 10 (Tcp_sender.cum_acked h.sender)

let test_pacing_only_rate () =
  (* A huge window with 100 ms pacing: throughput is exactly pace-bound
     (10 segments per second). *)
  let paced =
    {
      Cc.name = "pace";
      ecn_capable = false;
      reset = (fun ~now:_ -> ());
      on_ack = (fun _ -> ());
      on_loss = (fun ~now:_ -> ());
      on_timeout = (fun ~now:_ -> ());
      window = (fun () -> 1e6);
      intersend = (fun () -> 0.1);
      stamp = Cc.no_stamp;
    }
  in
  let h = make_harness ~workload:(fixed_transfer 1000) paced in
  Tcp_sender.start h.sender;
  Engine.run h.engine ~until:10.;
  let sent = Tcp_sender.next_seq h.sender in
  (* 10 s at 10 pkts/s, +-1 for boundary effects. *)
  Alcotest.(check bool) "pace-bound rate" true (sent >= 99 && sent <= 102)

let test_stale_conn_ack_ignored () =
  let h = make_harness ~workload:(fixed_transfer 5) (Newreno.make ()) in
  Tcp_sender.start h.sender;
  Engine.run h.engine ~until:10.;
  let final = Tcp_sender.cum_acked h.sender in
  (* Forge an ACK from a previous connection: must be a no-op. *)
  let ack = Packet.acquire h.table ~flow:0 ~seq:0 ~conn:999 ~flags:0 ~now:0. in
  h.table.Packet.cum_ack.{ack} <- 12345;
  h.table.Packet.received_at.{ack} <- 0.;
  Tcp_sender.handle_ack h.sender ack;
  Alcotest.(check int) "ignored" final (Tcp_sender.cum_acked h.sender)

let test_delivery_conservation_under_loss () =
  (* Everything cumulatively acked was delivered exactly once, even with
     heavy random loss. *)
  let rng = Prng.create 99 in
  let should_drop _ _ = Prng.float rng 1.0 < 0.2 in
  let h = make_harness ~should_drop ~workload:(fixed_transfer 60) (Newreno.make ()) in
  Tcp_sender.start h.sender;
  Engine.run h.engine ~until:120.;
  let s = Metrics.summary h.metrics 0 in
  Alcotest.(check int) "acked = transfer size" 60 (Tcp_sender.cum_acked h.sender);
  Alcotest.(check int) "unique deliveries = transfer size" 60 s.Metrics.packets

let test_rto_clamped_during_blackout () =
  (* Regression for unbounded exponential backoff: with every packet
     blackholed for minutes, the timer must saturate at [max_rto]
     instead of doubling past the simulation horizon, and the first ACK
     after recovery must reset the backoff so the sender probes at
     normal cadence again. *)
  let blackhole = ref true in
  let h =
    make_harness
      ~should_drop:(fun _ _ -> !blackhole)
      ~workload:(fixed_transfer 20) (Newreno.make ())
  in
  Tcp_sender.start h.sender;
  Engine.run h.engine ~until:600.;
  Alcotest.(check bool) "backoff saturates" true
    (Tcp_sender.rto_backoff h.sender <= 64.);
  Alcotest.(check bool) "timer clamped at max_rto" true
    (Tcp_sender.current_rto h.sender <= Tcp_sender.max_rto +. 1e-9);
  Alcotest.(check bool) "many timeouts fired (not wedged)" true
    (Tcp_sender.timeouts h.sender >= 8);
  blackhole := false;
  Engine.run h.engine ~until:700.;
  Alcotest.(check int) "transfer completes after recovery" 20
    (Tcp_sender.cum_acked h.sender);
  Alcotest.(check (float 0.)) "backoff reset by new ack" 1.
    (Tcp_sender.rto_backoff h.sender)

let tests =
  [
    Alcotest.test_case "lossless transfer completes" `Quick test_lossless_transfer_completes;
    Alcotest.test_case "RTO clamped across blackout" `Quick test_rto_clamped_during_blackout;
    Alcotest.test_case "fast retransmit recovers" `Quick test_fast_retransmit_recovers;
    Alcotest.test_case "RTO recovers tail loss" `Quick test_rto_recovers_tail_loss;
    Alcotest.test_case "burst loss recovers" `Quick test_burst_loss_recovers;
    Alcotest.test_case "Karn filters retransmit RTTs" `Quick test_karn_no_rtt_from_retx;
    Alcotest.test_case "window limits flight" `Quick test_window_limits_flight;
    Alcotest.test_case "pacing spacing" `Quick test_pacing_spacing;
    Alcotest.test_case "on/off starts fresh connections" `Quick test_on_off_connections;
    Alcotest.test_case "by-time flow stops at deadline" `Quick test_by_time_flow_stops;
    Alcotest.test_case "immediate start" `Quick test_start_immediate_vs_off_draw;
    Alcotest.test_case "zero-window cc progresses" `Quick test_zero_window_cc_still_progresses;
    Alcotest.test_case "pacing-only rate" `Quick test_pacing_only_rate;
    Alcotest.test_case "stale connection ack ignored" `Quick test_stale_conn_ack_ignored;
    Alcotest.test_case "delivery conservation under loss" `Quick test_delivery_conservation_under_loss;
  ]
