open Remy_cc
open Remy_sim
open Remy_util

(* Either sender behind one set of probes: the structure-of-arrays
   core under test ([Senders]), or the per-record oracle
   ([Record_sender], one record per flow). *)
type backend = Core | Records

type senders = {
  start : int -> unit;
  handle_ack : int -> int -> unit;  (* flow, ACK handle *)
  is_on : int -> bool;
  next_seq : int -> int;
  cum_acked : int -> int;
  in_flight : int -> int;
  connections_started : int -> int;
  retransmissions : int -> int;
  timeouts : int -> int;
  srtt : int -> float option;
  cwnd : int -> float;
  current_rto : int -> float;
  rto_backoff : int -> float;
}

let core_senders ~table engine ~metrics ~min_rto flows =
  let s = Senders.create ~table engine ~metrics ~min_rto flows in
  {
    start = Senders.start s;
    handle_ack = Senders.handle_ack s;
    is_on = Senders.is_on s;
    next_seq = Senders.next_seq s;
    cum_acked = Senders.cum_acked s;
    in_flight = Senders.in_flight s;
    connections_started = Senders.connections_started s;
    retransmissions = Senders.retransmissions s;
    timeouts = Senders.timeouts s;
    srtt = Senders.srtt s;
    cwnd = Senders.cwnd s;
    current_rto = Senders.current_rto s;
    rto_backoff = Senders.rto_backoff s;
  }

let record_senders ~table engine ~metrics ~min_rto (flows : Senders.flow array) =
  let rs =
    Array.mapi
      (fun i (f : Senders.flow) ->
        Record_sender.create ~table engine
          {
            Record_sender.flow = i;
            cc = f.cc;
            workload = f.workload;
            start = f.start;
            min_rto;
          }
          ~transmit:f.transmit ~metrics ~rng:f.rng)
      flows
  in
  {
    start = (fun i -> Record_sender.start rs.(i));
    handle_ack = (fun i h -> Record_sender.handle_ack rs.(i) h);
    is_on = (fun i -> Record_sender.is_on rs.(i));
    next_seq = (fun i -> Record_sender.next_seq rs.(i));
    cum_acked = (fun i -> Record_sender.cum_acked rs.(i));
    in_flight = (fun i -> Record_sender.in_flight rs.(i));
    connections_started = (fun i -> Record_sender.connections_started rs.(i));
    retransmissions = (fun i -> Record_sender.retransmissions rs.(i));
    timeouts = (fun i -> Record_sender.timeouts rs.(i));
    srtt = (fun i -> Record_sender.srtt rs.(i));
    cwnd = (fun i -> Record_sender.cwnd rs.(i));
    current_rto = (fun i -> Record_sender.current_rto rs.(i));
    rto_backoff = (fun i -> Record_sender.rto_backoff rs.(i));
  }

(* What the harness saw of one transmission: the handle itself is
   recycled once the packet is acknowledged or dropped. *)
type sent = {
  flow : int;
  seq : int;
  conn : int;
  sent_at : float;
  retx : bool;
  header : string;  (* the ECN request and any XCP header, as written *)
}

type harness = {
  engine : Engine.t;
  table : Packet.table;
  s : senders;
  metrics : Metrics.t;
  mutable transmissions : sent list;  (* newest first *)
}

let header (tbl : Packet.table) p =
  let f = tbl.Packet.flags.{p} in
  if f land Packet.xcp <> 0 then
    Printf.sprintf "ecn=%b xcp %h %h" (f land Packet.ecn_capable <> 0) tbl.Packet.xcp_cwnd.{p}
      tbl.Packet.xcp_rtt.{p}
  else Printf.sprintf "ecn=%b" (f land Packet.ecn_capable <> 0)

(* Direct sender<->receiver harness with injectable loss: [should_drop]
   sees every transmission (packet + transmission count for that
   (flow, conn, seq)) and decides its fate; [on_wire] may rewrite the
   columns of a packet that survives (an ECN mark, XCP feedback) and
   returns the extra delay it meets on the way.  Flow [i]'s one-way
   delay is otherwise [delays.(i)] in each direction. *)
let make_net ~backend ?(min_rto = 0.2) ?(should_drop = fun _ _ -> false)
    ?(on_wire = fun _ _ _ _ -> 0.) ~delays ~seed (flows : (Cc.t * Workload.t * _) array) =
  let n = Array.length flows in
  let engine = Engine.create () in
  let metrics = Metrics.create ~n_flows:n in
  let rng = Prng.create seed in
  let tx_counts : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let senders_cell = ref None in
  let table = Packet.create () in
  let receiver =
    Receiver_bank.create engine ~metrics ~table
      ~ack_sink:(fun flow ack ->
        Engine.schedule_in engine delays.(flow) (fun () ->
            (Option.get !senders_cell).handle_ack flow ack;
            Packet.release table ack))
      ~fwd_delay:delays
  in
  let h = ref None in
  let transmit flow p =
    let pkt =
      {
        flow;
        seq = table.Packet.seq.{p};
        conn = table.Packet.conn.{p};
        sent_at = table.Packet.sent_at.{p};
        retx = table.Packet.flags.{p} land Packet.retx <> 0;
        header = header table p;
      }
    in
    (match !h with Some h -> h.transmissions <- pkt :: h.transmissions | None -> ());
    let key = (flow, pkt.conn, pkt.seq) in
    let count = (try Hashtbl.find tx_counts key with Not_found -> 0) + 1 in
    Hashtbl.replace tx_counts key count;
    if should_drop pkt count then Packet.release table p
    else begin
      let jitter = on_wire table pkt count p in
      Engine.schedule_in engine (delays.(flow) +. jitter) (fun () ->
          Receiver_bank.receive receiver ~now:(Engine.now engine) flow p)
    end
  in
  let flows =
    Array.mapi
      (fun i (cc, workload, start) ->
        { Senders.cc; workload; start; rng = Prng.split rng; transmit = transmit i })
      flows
  in
  let s =
    (match backend with Core -> core_senders | Records -> record_senders)
      ~table engine ~metrics ~min_rto flows
  in
  senders_cell := Some s;
  let harness = { engine; table; s; metrics; transmissions = [] } in
  h := Some harness;
  harness

(* The cases below run one flow on the core. *)
let make_harness ?(delay = 0.05) ?min_rto ?should_drop
    ?(workload = Workload.saturating) ?(start = `Immediate) cc =
  make_net ~backend:Core ?min_rto ?should_drop ~delays:[| delay |] ~seed:42
    [| (cc, workload, start) |]

(* A congestion controller that never changes its decision. *)
let fixed_cc name ~window ~intersend =
  {
    Cc.name;
    ecn_capable = false;
    pacing = { Cc.window; intersend };
    reset = (fun ~now:_ -> ());
    on_ack = (fun _ _ ~now:_ ~newly_acked:_ ~in_recovery:_ -> ());
    on_loss = (fun ~now:_ -> ());
    on_timeout = (fun ~now:_ -> ());
    stamp = Cc.no_stamp;
  }

let fixed_transfer n =
  {
    Workload.off_time = Remy_util.Dist.Constant infinity;
    on_spec = Workload.By_bytes (Remy_util.Dist.Constant (float_of_int (n * Packet.default_size)));
  }

let test_lossless_transfer_completes () =
  let h = make_harness ~workload:(fixed_transfer 50) (Newreno.make ()) in
  h.s.start 0;
  Engine.run h.engine ~until:30.;
  Alcotest.(check int) "all 50 segments acked" 50 (h.s.cum_acked 0);
  Alcotest.(check bool) "flow completed (off)" false (h.s.is_on 0);
  Alcotest.(check int) "no retransmissions" 0 (h.s.retransmissions 0);
  let s = Metrics.summary h.metrics 0 in
  Alcotest.(check int) "receiver got 50" 50 s.Metrics.packets

let test_fast_retransmit_recovers () =
  (* Drop the first transmission of segment 10 only. *)
  let should_drop pkt count = pkt.seq = 10 && count = 1 in
  let h = make_harness ~should_drop ~workload:(fixed_transfer 60) (Newreno.make ()) in
  h.s.start 0;
  Engine.run h.engine ~until:30.;
  Alcotest.(check int) "transfer completes" 60 (h.s.cum_acked 0);
  Alcotest.(check bool) "retransmitted" true (h.s.retransmissions 0 >= 1);
  Alcotest.(check int) "no timeout needed" 0 (h.s.timeouts 0)

let test_rto_recovers_tail_loss () =
  (* Drop the first transmission of the last segment: no dupACKs can
     arrive, so only the RTO can recover it. *)
  let should_drop pkt count = pkt.seq = 19 && count = 1 in
  let h = make_harness ~should_drop ~workload:(fixed_transfer 20) (Newreno.make ()) in
  h.s.start 0;
  Engine.run h.engine ~until:30.;
  Alcotest.(check int) "transfer completes" 20 (h.s.cum_acked 0);
  Alcotest.(check bool) "timeout fired" true (h.s.timeouts 0 >= 1)

let test_burst_loss_recovers () =
  (* Drop a 12-segment burst once: triggers recovery and possibly RTO
     go-back-N; the transfer must still complete. *)
  let should_drop pkt count = pkt.seq >= 20 && pkt.seq < 32 && count = 1 in
  let h = make_harness ~should_drop ~workload:(fixed_transfer 80) (Newreno.make ()) in
  h.s.start 0;
  Engine.run h.engine ~until:60.;
  Alcotest.(check int) "transfer completes" 80 (h.s.cum_acked 0)

let test_karn_no_rtt_from_retx () =
  (* All RTT samples must come from first transmissions: make the
     retransmitted copy arrive with huge delay and check srtt stays
     reasonable. *)
  let should_drop pkt count = pkt.seq = 5 && count = 1 in
  let h = make_harness ~should_drop ~workload:(fixed_transfer 40) (Newreno.make ()) in
  h.s.start 0;
  Engine.run h.engine ~until:30.;
  match h.s.srtt 0 with
  | Some srtt -> Alcotest.(check bool) "srtt near 100 ms" true (srtt < 0.3)
  | None -> Alcotest.fail "no srtt"

let test_window_limits_flight () =
  (* A fixed window of 4: never more than 4 outstanding. *)
  let fixed_cc =
    fixed_cc "fixed" ~window:4. ~intersend:0.
  in
  let h = make_harness ~workload:(fixed_transfer 40) fixed_cc in
  let max_flight = ref 0 in
  h.s.start 0;
  (* Sample in-flight after every event via a polling tick. *)
  let rec probe () =
    max_flight := max !max_flight (h.s.in_flight 0);
    if Engine.now h.engine < 20. then Engine.schedule_in h.engine 0.001 probe
  in
  probe ();
  Engine.run h.engine ~until:20.;
  Alcotest.(check bool) "window respected" true (!max_flight <= 4);
  Alcotest.(check int) "transfer completes" 40 (h.s.cum_acked 0)

let test_pacing_spacing () =
  (* intersend of 30 ms: consecutive sends at least that far apart. *)
  let paced_cc =
    fixed_cc "paced" ~window:100. ~intersend:0.030
  in
  let h = make_harness ~workload:(fixed_transfer 20) paced_cc in
  h.s.start 0;
  Engine.run h.engine ~until:10.;
  let sends = List.rev_map (fun p -> p.sent_at) h.transmissions in
  let rec check = function
    | a :: (b :: _ as tl) ->
      if b -. a < 0.030 -. 1e-9 then Alcotest.failf "pacing violated: %f" (b -. a);
      check tl
    | _ -> ()
  in
  check sends;
  Alcotest.(check int) "transfer completes" 20 (h.s.cum_acked 0)

let test_on_off_connections () =
  (* Two on-periods: fresh connection counters and sequence space. *)
  let w =
    {
      Workload.off_time = Remy_util.Dist.Constant 0.5;
      on_spec = Workload.By_bytes (Remy_util.Dist.Constant (float_of_int (5 * Packet.default_size)));
    }
  in
  let h = make_harness ~workload:w (Newreno.make ()) in
  h.s.start 0;
  Engine.run h.engine ~until:5.;
  Alcotest.(check bool) "several connections" true
    (h.s.connections_started 0 >= 3);
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
  h.s.start 0;
  Engine.run h.engine ~until:5.;
  Alcotest.(check bool) "off after deadline" false (h.s.is_on 0);
  let last_send =
    match h.transmissions with [] -> 0. | p :: _ -> p.sent_at
  in
  Alcotest.(check bool) "no sends after deadline" true (last_send <= 1.0 +. 1e-9)

let test_start_immediate_vs_off_draw () =
  let h = make_harness ~start:`Immediate ~workload:(fixed_transfer 1) (Newreno.make ()) in
  h.s.start 0;
  Alcotest.(check bool) "on at t=0" true (h.s.is_on 0)

let test_zero_window_cc_still_progresses () =
  (* A congestion controller that demands a zero (or negative) window
     must not deadlock the connection: the sender floors the effective
     window at one segment. *)
  let zero_cc =
    fixed_cc "zero" ~window:0. ~intersend:0.
  in
  let h = make_harness ~workload:(fixed_transfer 10) zero_cc in
  h.s.start 0;
  Engine.run h.engine ~until:30.;
  Alcotest.(check int) "transfer still completes" 10 (h.s.cum_acked 0)

let test_pacing_only_rate () =
  (* A huge window with 100 ms pacing: throughput is exactly pace-bound
     (10 segments per second). *)
  let paced =
    fixed_cc "pace" ~window:1e6 ~intersend:0.1
  in
  let h = make_harness ~workload:(fixed_transfer 1000) paced in
  h.s.start 0;
  Engine.run h.engine ~until:10.;
  let sent = h.s.next_seq 0 in
  (* 10 s at 10 pkts/s, +-1 for boundary effects. *)
  Alcotest.(check bool) "pace-bound rate" true (sent >= 99 && sent <= 102)

let test_stale_conn_ack_ignored () =
  let h = make_harness ~workload:(fixed_transfer 5) (Newreno.make ()) in
  h.s.start 0;
  Engine.run h.engine ~until:10.;
  let final = h.s.cum_acked 0 in
  (* Forge an ACK from a previous connection: must be a no-op. *)
  let ack = Packet.acquire h.table ~flow:0 ~seq:0 ~conn:999 ~flags:0 ~now:0. in
  h.table.Packet.cum_ack.{ack} <- 12345;
  h.table.Packet.received_at.{ack} <- 0.;
  h.s.handle_ack 0 ack;
  Alcotest.(check int) "ignored" final (h.s.cum_acked 0)

let test_delivery_conservation_under_loss () =
  (* Everything cumulatively acked was delivered exactly once, even with
     heavy random loss. *)
  let rng = Prng.create 99 in
  let should_drop _ _ = Prng.float rng 1.0 < 0.2 in
  let h = make_harness ~should_drop ~workload:(fixed_transfer 60) (Newreno.make ()) in
  h.s.start 0;
  Engine.run h.engine ~until:120.;
  let s = Metrics.summary h.metrics 0 in
  Alcotest.(check int) "acked = transfer size" 60 (h.s.cum_acked 0);
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
  h.s.start 0;
  Engine.run h.engine ~until:600.;
  Alcotest.(check bool) "backoff saturates" true
    (h.s.rto_backoff 0 <= 64.);
  Alcotest.(check bool) "timer clamped at max_rto" true
    (h.s.current_rto 0 <= Senders.max_rto +. 1e-9);
  Alcotest.(check bool) "many timeouts fired (not wedged)" true
    (h.s.timeouts 0 >= 8);
  blackhole := false;
  Engine.run h.engine ~until:700.;
  Alcotest.(check int) "transfer completes after recovery" 20
    (h.s.cum_acked 0);
  Alcotest.(check (float 0.)) "backoff reset by new ack" 1.
    (h.s.rto_backoff 0)

(* --- the core against the record oracle ------------------------------- *)

(* Random networks of one or three flows, each with its own congestion
   control, workload, start mode and path delay, behind seeded drops;
   DCTCP's packets get seeded ECN marks and XCP's packets seeded router
   feedback, written by the harness, and some packets a seeded extra
   delay of up to 4 ms (so RTTs vary and packets reorder).  Both senders must emit the same
   transmissions (time, flow, connection, sequence, retransmission bit,
   ECN request and XCP header) and leave the same flow summaries,
   sender state and rule tallies.  Drop, mark and feedback decisions
   hash (flow, connection, sequence, transmission count), so identical
   senders see identical networks. *)

type cc_kind =
  | Newreno
  | Vegas
  | Cubic
  | Compound
  | Dctcp
  | Xcp
  | Remy of {
      mask : Remy.Remycc.mask;
      override : int option;  (* a live rule id *)
      tally : bool;
      idle_restart_s : float option;
    }

type flow_case = { kind : cc_kind; workload : int; off_start : bool; delay : float }

type case = {
  seed : int;
  drop_p : float;
  mark_p : float;
  min_rto : float;
  duration : float;
  flows : flow_case array;
}

(* Two sharply different actions split on rtt_ratio, so a divergence in
   the memory arithmetic selects a different rule. *)
let remy_tree =
  let open Remy in
  let tree = Rule_tree.create () in
  ignore
    (Rule_tree.subdivide tree 0
       ~at:(Memory.make ~ack_ewma:20. ~send_ewma:20. ~rtt_ratio:1.2));
  List.iter
    (fun id ->
      let b = Rule_tree.box tree id in
      Rule_tree.set_action tree id
        (if fst b.(2) >= 1.2 then { Action.multiple = 0.5; increment = 1.; intersend_ms = 3. }
         else { Action.multiple = 1.; increment = 1.; intersend_ms = 1. }))
    (Rule_tree.live_ids tree);
  tree

let make_cc kind =
  match kind with
  | Newreno -> (Newreno.make (), None)
  | Vegas -> (Vegas.make (), None)
  | Cubic -> (Cubic.make (), None)
  | Compound -> (Compound.make (), None)
  | Dctcp -> (Dctcp.make (), None)
  | Xcp -> (Xcp.make (), None)
  | Remy { mask; override; tally; idle_restart_s } ->
    let open Remy in
    let tally =
      if tally then Some (Tally.create ~capacity:(Rule_tree.capacity remy_tree) ~seed:5 ())
      else None
    in
    let override =
      Option.map
        (fun id -> (id, { Action.multiple = 0.8; increment = 2.; intersend_ms = 2. }))
        override
    in
    (Remycc.make ?override ?tally ~mask ?idle_restart_s remy_tree, tally)

let workloads =
  [|
    { (fixed_transfer 60) with Workload.off_time = Remy_util.Dist.Constant 0.5 };
    { (fixed_transfer 25) with Workload.off_time = Remy_util.Dist.Constant 0.1 };
    Workload.by_bytes ~mean_bytes:6e4 ~mean_off:0.2;
    Workload.by_time ~mean_on:0.4 ~mean_off:0.3;
  |]

let hash_below p key = float_of_int (Hashtbl.hash key mod 10_000) < p *. 10_000.

(* Everything both senders leave behind, as text (floats in hex). *)
let run_case backend c =
  let ccs = Array.map (fun f -> make_cc f.kind) c.flows in
  let should_drop (pkt : sent) count =
    hash_below c.drop_p (c.seed, pkt.flow, pkt.conn, pkt.seq, count)
  in
  let on_wire (tbl : Packet.table) (pkt : sent) count p =
    let key = (c.seed + 1, pkt.flow, pkt.conn, pkt.seq, count) in
    if tbl.Packet.flags.{p} land Packet.ecn_capable <> 0 && hash_below c.mark_p key then
      tbl.Packet.flags.{p} <- tbl.Packet.flags.{p} lor Packet.ecn_marked;
    (* A router grants a window delta in [-1, 1]; a quarter of the
       packets pass no router that lowers the header's infinity. *)
    if tbl.Packet.flags.{p} land Packet.xcp <> 0 && not (hash_below 0.25 key) then
      tbl.Packet.xcp_feedback.{p} <- float_of_int ((Hashtbl.hash key mod 5) - 2) *. 0.5;
    let key = (c.seed + 2, pkt.flow, pkt.conn, pkt.seq, count) in
    if hash_below 0.3 key then float_of_int (Hashtbl.hash key mod 5) *. 1e-3 else 0.
  in
  let h =
    make_net ~backend ~min_rto:c.min_rto ~should_drop ~on_wire ~seed:c.seed
      ~delays:(Array.map (fun f -> f.delay) c.flows)
      (Array.mapi
         (fun i f ->
           ( fst ccs.(i),
             workloads.(f.workload),
             if f.off_start then `Off_draw else `Immediate ))
         c.flows)
  in
  Array.iteri (fun i _ -> h.s.start i) c.flows;
  Engine.run h.engine ~until:c.duration;
  Metrics.finish h.metrics c.duration;
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      Printf.bprintf b "tx %h flow %d conn %d seq %d retx %b %s\n" p.sent_at p.flow p.conn
        p.seq p.retx p.header)
    (List.rev h.transmissions);
  Array.iteri
    (fun i (f : Metrics.flow_summary) ->
      Printf.bprintf b "flow %d: %h %h %d %d %h\n" i f.Metrics.throughput_mbps
        f.Metrics.mean_queueing_delay_ms f.Metrics.bytes f.Metrics.packets
        f.Metrics.on_time;
      Printf.bprintf b "  on %b next %d cum %d flight %d conns %d retx %d rto %d\n"
        (h.s.is_on i) (h.s.next_seq i) (h.s.cum_acked i) (h.s.in_flight i)
        (h.s.connections_started i) (h.s.retransmissions i) (h.s.timeouts i);
      Printf.bprintf b "  srtt %s cwnd %h rto %h backoff %h\n"
        (match h.s.srtt i with Some r -> Printf.sprintf "%h" r | None -> "-")
        (h.s.cwnd i) (h.s.current_rto i) (h.s.rto_backoff i);
      match snd ccs.(i) with
      | None -> ()
      | Some t ->
        List.iter
          (fun id ->
            Printf.bprintf b "  rule %d: %d" id (Remy.Tally.count t id);
            List.iter
              (fun (m : Remy.Memory.t) ->
                Printf.bprintf b " (%h %h %h)" m.ack_ewma m.send_ewma m.rtt_ratio)
              (Remy.Tally.samples t id);
            Buffer.add_char b '\n')
          (Remy.Rule_tree.live_ids remy_tree))
    (Metrics.summaries h.metrics);
  (List.length h.transmissions, Buffer.contents b)

let print_kind = function
  | Newreno -> "newreno"
  | Vegas -> "vegas"
  | Cubic -> "cubic"
  | Compound -> "compound"
  | Dctcp -> "dctcp"
  | Xcp -> "xcp"
  | Remy { mask; override; tally; idle_restart_s } ->
    Printf.sprintf "remy(mask=%b%b%b override=%s tally=%b idle=%s)" mask.use_ack_ewma
      mask.use_send_ewma mask.use_rtt_ratio
      (match override with Some id -> string_of_int id | None -> "-")
      tally
      (match idle_restart_s with Some s -> string_of_float s | None -> "-")

let print_case c =
  Printf.sprintf "seed %d drop %g mark %g min_rto %g duration %g flows [%s]" c.seed c.drop_p
    c.mark_p c.min_rto c.duration
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun f ->
               Printf.sprintf "%s workload %d %s delay %g" (print_kind f.kind) f.workload
                 (if f.off_start then "off-draw" else "immediate")
                 f.delay)
             c.flows)))

let gen_case ~n_flows =
  let open QCheck.Gen in
  let gen_kind =
    frequency
      [
        (1, return Newreno);
        (1, return Vegas);
        (1, return Cubic);
        (1, return Compound);
        (1, return Dctcp);
        (1, return Xcp);
        ( 3,
          map
            (fun ((a, s, r), override, tally, idle_restart_s) ->
              Remy
                {
                  mask = { use_ack_ewma = a; use_send_ewma = s; use_rtt_ratio = r };
                  override;
                  tally;
                  idle_restart_s;
                })
            (quad (triple bool bool bool)
               (opt (oneofl (Remy.Rule_tree.live_ids remy_tree)))
               bool
               (opt (float_range 0.02 0.4))) );
      ]
  in
  let gen_flow =
    map
      (fun (kind, workload, off_start, delay) -> { kind; workload; off_start; delay })
      (quad gen_kind (int_bound (Array.length workloads - 1)) bool (float_range 0.005 0.06))
  in
  map
    (fun ((seed, drop_p, mark_p), (min_rto, duration), flows) ->
      { seed; drop_p; mark_p; min_rto; duration; flows = Array.of_list flows })
    (triple
       (triple (int_bound 1_000_000) (float_range 0. 0.15) (float_range 0. 0.4))
       (pair (oneofl [ 0.2; 1.0 ]) (float_range 1. 4.))
       (list_repeat n_flows gen_flow))

let prop_core_matches_records ~n_flows ~count =
  QCheck.Test.make
    ~name:(Printf.sprintf "core matches records (%d flow%s)" n_flows
             (if n_flows = 1 then "" else "s"))
    ~count
    (QCheck.make ~print:print_case (gen_case ~n_flows))
    (fun c ->
      let sent, core = run_case Core c in
      let _, records = run_case Records c in
      QCheck.assume (sent > 0);
      if not (String.equal core records) then begin
        let a = String.split_on_char '\n' core and b = String.split_on_char '\n' records in
        let rec first_diff i = function
          | x :: xs, y :: ys ->
            if String.equal x y then first_diff (i + 1) (xs, ys) else (i, x, y)
          | x :: _, [] -> (i, x, "<end>")
          | [], y :: _ -> (i, "<end>", y)
          | [], [] -> (i, "", "")
        in
        let i, x, y = first_diff 1 (a, b) in
        QCheck.Test.fail_reportf "line %d differs:\n  core:    %s\n  records: %s" i x y
      end;
      true)

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
    QCheck_alcotest.to_alcotest (prop_core_matches_records ~n_flows:1 ~count:150);
    QCheck_alcotest.to_alcotest (prop_core_matches_records ~n_flows:3 ~count:60);
  ]
