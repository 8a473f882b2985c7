open Remy_sim
open Remy_util
open Remy_cc

(* Structure-of-arrays RemyCC sender fleet.

   One {!Sender_backend.factory} whose per-flow hot state — reliability
   counters, RTO estimator, pacing clock, RemyCC memory signals — lives
   in flat float/int arrays shared by all flows instead of one
   {!Tcp_sender} record + {!Remycc} closure set per flow.  At 10k flows
   this removes ~10k record/closure webs and, on the ack path, the
   per-ack [Cc.ack_info] record (the RemyCC update needs only four of
   its fields, read here straight from the ACK's columns): without a tally,
   steady-state ack processing builds no [Memory.t] ([apply3] hands
   the three signals to {!Rule_tree.lookup3}) and is cache-friendly
   across flows.

   Every arithmetic expression below is copied verbatim from
   [Tcp_sender], [Remycc] and [Memory] so that runs are bit-identical
   to the per-record backend — test_fleet holds this equivalence on
   multi-flow lossy scenarios, and the engine's heap oracle makes it
   transitive to the seed implementation.  When changing one side,
   change the other. *)

type bank = {
  engine : Engine.t;
  table : Packet.table;
  metrics : Metrics.t;
  tree : Rule_tree.t;
  override : (int * Action.t) option;
  tally : Tally.t option;
  idle_restart_s : float; (* infinity = off, mirrors Remycc.make *)
  n : int;
  (* Per-flow wiring, registered as the factory is called in flow
     order. *)
  rng : Prng.t array;
  workload : Workload.t array;
  transmit : (int -> unit) array;
  start_mode : [ `Immediate | `Off_draw ] array;
  min_rto : float array;
  (* Registered per-flow callbacks: the pacing-stall wake and the end of
     an off period. *)
  mutable wake : Engine.handle array;
  mutable off_end : Engine.handle array;
  (* Workload state *)
  on : bool array;
  demand_is_time : bool array;
  demand_seg : int array; (* valid when [not demand_is_time] *)
  demand_until : float array; (* valid when [demand_is_time] *)
  conn : int array; (* -1 before first connection *)
  (* Reliability state (per connection) *)
  next_seq : int array;
  highest_sent : int array; (* one past the highest seq ever sent *)
  cum_acked : int array;
  dup_acks : int array;
  in_recovery : bool array;
  recover_seq : int array;
  partial_rearmed : bool array;
  (* RTT estimation / RTO; srtt is NaN before the first sample. *)
  srtt : float array;
  rttvar : float array;
  rto_backoff : float array;
  (* Lazy retransmission timer (see Tcp_sender for the discipline). *)
  timer_armed : bool array;
  timer_deadline : float array;
  timer_event_at : float array; (* infinity when no live event *)
  timer_gen : int array;
  (* Pacing *)
  last_send : float array;
  wake_armed : bool array;
  (* RemyCC pacing state *)
  cwnd : float array;
  intersend : float array;
  (* RemyCC memory tracker (Memory.tracker unrolled; the EWMAs use
     Ewma.create_at 0., i.e. always-set blending). *)
  ack_ewma : float array;
  send_ewma : float array;
  last_received_at : float array; (* NaN before the first ack *)
  last_sent_at : float array; (* NaN before the first ack *)
  min_rtt : float array; (* infinity before the first sample *)
  rtt_ratio : float array;
}

let max_rto = Tcp_sender.max_rto

let make_bank ~tree ~override ~tally ~idle_restart_s (env : Sender_backend.env) =
  let n = env.Sender_backend.n_flows in
  if n < 1 then invalid_arg "Fleet: n_flows must be >= 1";
  {
    engine = env.engine;
    table = env.table;
    metrics = env.metrics;
    tree;
    override;
    tally;
    idle_restart_s;
    n;
    rng = Array.make n env.rng;
    workload = Array.make n env.workload;
    transmit = Array.make n env.transmit;
    start_mode = Array.make n env.start;
    min_rto = Array.make n env.min_rto;
    wake = [||];
    off_end = [||];
    on = Array.make n false;
    demand_is_time = Array.make n false;
    demand_seg = Array.make n 0;
    demand_until = Array.make n 0.;
    conn = Array.make n (-1);
    next_seq = Array.make n 0;
    highest_sent = Array.make n 0;
    cum_acked = Array.make n 0;
    dup_acks = Array.make n 0;
    in_recovery = Array.make n false;
    recover_seq = Array.make n (-1);
    partial_rearmed = Array.make n false;
    srtt = Array.make n Float.nan;
    rttvar = Array.make n 0.;
    rto_backoff = Array.make n 1.;
    timer_armed = Array.make n false;
    timer_deadline = Array.make n Float.infinity;
    timer_event_at = Array.make n Float.infinity;
    timer_gen = Array.make n 0;
    last_send = Array.make n neg_infinity;
    wake_armed = Array.make n false;
    cwnd = Array.make n 0.;
    intersend = Array.make n 0.;
    ack_ewma = Array.make n 0.;
    send_ewma = Array.make n 0.;
    last_received_at = Array.make n Float.nan;
    last_sent_at = Array.make n Float.nan;
    min_rtt = Array.make n Float.infinity;
    rtt_ratio = Array.make n 0.;
  }

(* --- RemyCC (Remycc.make with mask = all_signals, inlined) --------- *)

let apply_mem b i mem =
  let id = Rule_tree.lookup b.tree mem in
  (match b.tally with Some t -> Tally.record t id mem | None -> ());
  let act = Rule_tree.action ?override:b.override b.tree id in
  b.cwnd.(i) <- Action.apply act ~window:b.cwnd.(i);
  b.intersend.(i) <- act.Action.intersend_ms /. 1e3

(* Per-ack fast path: when no tally wants the memory record, look the
   rule up straight from the three floats and allocate nothing. *)
(* remy-lint: hot *)
let apply3 b i ~ack_ewma ~send_ewma ~rtt_ratio =
  match b.tally with
  | Some _ -> apply_mem b i (Memory.make ~ack_ewma ~send_ewma ~rtt_ratio)
  | None ->
    let id = Rule_tree.lookup3 b.tree ~ack_ewma ~send_ewma ~rtt_ratio in
    let act = Rule_tree.action ?override:b.override b.tree id in
    b.cwnd.(i) <- Action.apply act ~window:b.cwnd.(i);
    b.intersend.(i) <- act.Action.intersend_ms /. 1e3

let cc_reset b i =
  (* Memory.reset *)
  b.ack_ewma.(i) <- 0.;
  b.send_ewma.(i) <- 0.;
  b.last_received_at.(i) <- Float.nan;
  b.last_sent_at.(i) <- Float.nan;
  b.min_rtt.(i) <- Float.infinity;
  b.rtt_ratio.(i) <- 0.;
  b.cwnd.(i) <- 0.;
  (* Section 4.3: the all-zero region's action sets the initial window. *)
  apply_mem b i Memory.zero

(* [rtt_s] is NaN when Karn's rule rejected the sample (Tcp_sender
   passes [rtt = None]); RemyCC then falls back to now - sent_at. *)
(* remy-lint: hot *)
let cc_on_ack b i ~now ~rtt_s ~acked_sent_at ~receiver_ts =
  (* Idle restart (Remycc.make's idle_restart_s, mirrored): an ACK gap
     longer than the threshold restarts the memory tracker — only the
     tracker, not the pacing state — before this ack is folded in. *)
  (if b.idle_restart_s < Float.infinity then
     let last = b.last_received_at.(i) in
     if (not (Float.is_nan last)) && receiver_ts -. last > b.idle_restart_s
     then begin
       b.ack_ewma.(i) <- 0.;
       b.send_ewma.(i) <- 0.;
       b.last_received_at.(i) <- Float.nan;
       b.last_sent_at.(i) <- Float.nan;
       b.min_rtt.(i) <- Float.infinity;
       b.rtt_ratio.(i) <- 0.
     end);
  let rtt = if Float.is_nan rtt_s then now -. acked_sent_at else rtt_s in
  (* Memory.on_ack: deltas in milliseconds, floored at zero. *)
  if not (Float.is_nan b.last_received_at.(i)) then begin
    let xa = Float.max 0. ((receiver_ts -. b.last_received_at.(i)) *. 1e3) in
    b.ack_ewma.(i) <-
      b.ack_ewma.(i) +. (Memory.ewma_weight *. (xa -. b.ack_ewma.(i)));
    let xs = Float.max 0. ((acked_sent_at -. b.last_sent_at.(i)) *. 1e3) in
    b.send_ewma.(i) <-
      b.send_ewma.(i) +. (Memory.ewma_weight *. (xs -. b.send_ewma.(i)))
  end;
  b.last_received_at.(i) <- receiver_ts;
  b.last_sent_at.(i) <- acked_sent_at;
  if rtt < b.min_rtt.(i) then b.min_rtt.(i) <- rtt;
  b.rtt_ratio.(i) <-
    (if b.min_rtt.(i) > 0. && Float.is_finite b.min_rtt.(i) then
       rtt /. b.min_rtt.(i)
     else 1.);
  apply3 b i ~ack_ewma:b.ack_ewma.(i) ~send_ewma:b.send_ewma.(i)
    ~rtt_ratio:b.rtt_ratio.(i)

(* --- sender (Tcp_sender, inlined over the bank) -------------------- *)

let in_flight b i = Int.max 0 (b.next_seq.(i) - b.cum_acked.(i) - b.dup_acks.(i))

let current_rto b i =
  let base =
    if Float.is_nan b.srtt.(i) then 1.0 else b.srtt.(i) +. (4. *. b.rttvar.(i))
  in
  Float.min max_rto (Float.max b.min_rto.(i) base *. b.rto_backoff.(i))

let segments_remaining b i =
  if b.demand_is_time.(i) then
    if Engine.now b.engine < b.demand_until.(i) then max_int else 0
  else b.demand_seg.(i) - b.next_seq.(i)

let rec schedule_timer_event b i at =
  b.timer_gen.(i) <- b.timer_gen.(i) + 1;
  let gen = b.timer_gen.(i) in
  b.timer_event_at.(i) <- at;
  Engine.schedule b.engine at (fun () -> timer_event b i gen)

and timer_event b i gen =
  if gen = b.timer_gen.(i) then begin
    b.timer_event_at.(i) <- Float.infinity;
    if b.timer_armed.(i) then begin
      if Engine.now b.engine >= b.timer_deadline.(i) then on_rto b i
      else schedule_timer_event b i b.timer_deadline.(i)
    end
  end

and arm_timer b i =
  b.timer_armed.(i) <- true;
  b.timer_deadline.(i) <- Engine.now b.engine +. current_rto b i;
  if b.timer_deadline.(i) < b.timer_event_at.(i) then
    schedule_timer_event b i b.timer_deadline.(i)

and disarm_timer b i = b.timer_armed.(i) <- false

and send_packet b i ~seq =
  let now = Engine.now b.engine in
  let flags = if seq < b.highest_sent.(i) then Packet.retx else 0 in
  let h = Packet.acquire b.table ~flow:i ~seq ~conn:b.conn.(i) ~flags ~now in
  b.highest_sent.(i) <- Int.max b.highest_sent.(i) (seq + 1);
  b.last_send.(i) <- now;
  b.transmit.(i) h;
  if not b.timer_armed.(i) then arm_timer b i

and try_send b i =
  if b.on.(i) then begin
    let now = Engine.now b.engine in
    let window = Int.max 1 (int_of_float (Float.max 0. b.cwnd.(i))) in
    if in_flight b i < window && segments_remaining b i > 0 then begin
      let gap = b.intersend.(i) in
      let allowed_at = b.last_send.(i) +. gap in
      if now +. 1e-12 >= allowed_at then begin
        send_packet b i ~seq:b.next_seq.(i);
        b.next_seq.(i) <- b.next_seq.(i) + 1;
        try_send b i
      end
      else if not b.wake_armed.(i) then begin
        b.wake_armed.(i) <- true;
        Engine.schedule_handle b.engine allowed_at b.wake.(i)
      end
    end
  end

and on_rto b i =
  b.timer_armed.(i) <- false;
  if b.on.(i) && b.highest_sent.(i) > b.cum_acked.(i) then begin
    let now = Engine.now b.engine in
    (let tr = Engine.tracer b.engine in
     if Remy_obs.Trace.is_on tr then
       Remy_obs.Trace.sender_event tr ~now ~kind:Remy_obs.Trace.Timeout ~flow:i
         ~seq:b.cum_acked.(i));
    b.rto_backoff.(i) <- Float.min 64. (b.rto_backoff.(i) *. 2.);
    b.dup_acks.(i) <- 0;
    b.in_recovery.(i) <- false;
    (* RFC 6582 "careful": see Tcp_sender.on_rto. *)
    b.recover_seq.(i) <- b.highest_sent.(i);
    b.next_seq.(i) <- b.cum_acked.(i);
    arm_timer b i;
    try_send b i
  end

and switch_on b i =
  let now = Engine.now b.engine in
  b.on.(i) <- true;
  b.conn.(i) <- b.conn.(i) + 1;
  b.next_seq.(i) <- 0;
  b.highest_sent.(i) <- 0;
  b.cum_acked.(i) <- 0;
  b.dup_acks.(i) <- 0;
  b.in_recovery.(i) <- false;
  b.recover_seq.(i) <- -1;
  b.partial_rearmed.(i) <- false;
  b.srtt.(i) <- Float.nan;
  b.rttvar.(i) <- 0.;
  b.rto_backoff.(i) <- 1.;
  disarm_timer b i;
  b.last_send.(i) <- neg_infinity;
  cc_reset b i;
  Metrics.flow_on b.metrics i now;
  (match Workload.sample_on b.workload.(i) b.rng.(i) with
  | Workload.Packets n ->
    b.demand_is_time.(i) <- false;
    b.demand_seg.(i) <- n
  | Workload.Seconds s ->
    b.demand_is_time.(i) <- true;
    b.demand_until.(i) <- now +. s;
    if Float.is_finite s then begin
      let conn = b.conn.(i) in
      Engine.schedule_in b.engine s (fun () ->
          if b.on.(i) && b.conn.(i) = conn then switch_off b i)
    end);
  try_send b i

and switch_off b i =
  let now = Engine.now b.engine in
  b.on.(i) <- false;
  disarm_timer b i;
  Metrics.flow_off b.metrics i now;
  let off = Workload.sample_off b.workload.(i) b.rng.(i) in
  if Float.is_finite off then Engine.schedule_handle_in b.engine off b.off_end.(i)

let start b i =
  match b.start_mode.(i) with
  | `Immediate -> switch_on b i
  | `Off_draw ->
    let off = Workload.sample_off b.workload.(i) b.rng.(i) in
    if Float.is_finite off then Engine.schedule_handle_in b.engine off b.off_end.(i)

let complete_if_done b i =
  if
    (not b.demand_is_time.(i))
    && b.cum_acked.(i) >= b.demand_seg.(i)
    && b.on.(i)
  then switch_off b i

(* [h] is the ACK's handle (its data packet's, see Receiver_bank);
   [send_packet] may grow the table, so columns are read through
   [b.table] at each use. *)
let handle_ack b i h =
  let tbl = b.table in
  if b.on.(i) && tbl.Packet.conn.{h} = b.conn.(i) then begin
    let now = Engine.now b.engine in
    let rtt_s =
      if tbl.Packet.flags.{h} land Packet.retx <> 0 then Float.nan
      else now -. tbl.Packet.sent_at.{h}
    in
    (* RFC 6298 estimator (NaN = no Karn-valid sample). *)
    if not (Float.is_nan rtt_s) then begin
      if Float.is_nan b.srtt.(i) then begin
        b.srtt.(i) <- rtt_s;
        b.rttvar.(i) <- rtt_s /. 2.
      end
      else begin
        b.rttvar.(i) <-
          (0.75 *. b.rttvar.(i)) +. (0.25 *. Float.abs (b.srtt.(i) -. rtt_s));
        b.srtt.(i) <- (0.875 *. b.srtt.(i)) +. (0.125 *. rtt_s)
      end
    end;
    let cum_ack = tbl.Packet.cum_ack.{h} in
    let newly = cum_ack - b.cum_acked.(i) in
    if newly > 0 then begin
      b.cum_acked.(i) <- cum_ack;
      if b.next_seq.(i) < b.cum_acked.(i) then b.next_seq.(i) <- b.cum_acked.(i);
      b.dup_acks.(i) <- 0;
      b.rto_backoff.(i) <- 1.;
      if b.in_recovery.(i) then begin
        if b.cum_acked.(i) >= b.recover_seq.(i) then begin
          b.in_recovery.(i) <- false;
          arm_timer b i
        end
        else begin
          (* NewReno partial ACK, impatient re-arm: see Tcp_sender. *)
          send_packet b i ~seq:b.cum_acked.(i);
          if not b.partial_rearmed.(i) then begin
            b.partial_rearmed.(i) <- true;
            arm_timer b i
          end
        end
      end
      else if b.highest_sent.(i) > b.cum_acked.(i) then arm_timer b i
      else disarm_timer b i;
      if b.highest_sent.(i) <= b.cum_acked.(i) then disarm_timer b i
    end
    else begin
      b.dup_acks.(i) <- b.dup_acks.(i) + 1;
      if
        b.dup_acks.(i) = 3
        && (not b.in_recovery.(i))
        && b.cum_acked.(i) > b.recover_seq.(i)
      then begin
        b.in_recovery.(i) <- true;
        b.recover_seq.(i) <- b.next_seq.(i);
        b.partial_rearmed.(i) <- false;
        (* cc.on_loss is a no-op for RemyCC. *)
        send_packet b i ~seq:b.cum_acked.(i)
      end
    end;
    cc_on_ack b i ~now ~rtt_s ~acked_sent_at:tbl.Packet.sent_at.{h}
      ~receiver_ts:tbl.Packet.received_at.{h};
    complete_if_done b i;
    try_send b i
  end

(* --- factory ------------------------------------------------------- *)

let factory ?override ?tally ?(idle_restart_s = Float.infinity) tree :
    Sender_backend.factory =
  let bank = ref None in
  fun env ->
    let b =
      match !bank with
      | Some b -> b
      | None ->
        let b = make_bank ~tree ~override ~tally ~idle_restart_s env in
        b.wake <-
          Array.init b.n (fun i ->
              Engine.register b.engine (fun () ->
                  b.wake_armed.(i) <- false;
                  try_send b i));
        b.off_end <-
          Array.init b.n (fun i -> Engine.register b.engine (fun () -> switch_on b i));
        bank := Some b;
        b
    in
    let i = env.Sender_backend.flow in
    if i < 0 || i >= b.n then
      invalid_arg (Printf.sprintf "Fleet: flow %d out of range (n=%d)" i b.n);
    if env.Sender_backend.n_flows <> b.n then
      invalid_arg "Fleet: inconsistent n_flows across factory calls";
    b.rng.(i) <- env.Sender_backend.rng;
    b.workload.(i) <- env.Sender_backend.workload;
    b.transmit.(i) <- env.Sender_backend.transmit;
    b.start_mode.(i) <- env.Sender_backend.start;
    b.min_rto.(i) <- env.Sender_backend.min_rto;
    {
      Sender_backend.start_flow = (fun () -> start b i);
      handle_ack = (fun h -> handle_ack b i h);
      cwnd = (fun () -> b.cwnd.(i));
      pacing_gap = (fun () -> b.intersend.(i));
      srtt =
        (fun () -> if Float.is_nan b.srtt.(i) then None else Some b.srtt.(i));
    }
