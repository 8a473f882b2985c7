open Remy_sim
open Remy_util

(* Every flow's TCP sender, as one structure of arrays indexed by flow:
   the reliability counters, the RFC 6298 estimator and timer, the
   pacing clock and the on/off workload state of flow [i] live at index
   [i] of flat int, float and bool arrays, and its congestion decision
   is the flow's own [Cc.t].  The ACK path allocates nothing: the CC
   receives the ACK's handle and writes its window and pacing gap into
   its flat [Cc.pacing] record, which the sender reads unboxed. *)

type flow = {
  cc : Cc.t;
  workload : Workload.t;
  start : [ `Immediate | `Off_draw ];
  rng : Prng.t;
  transmit : int -> unit;
}

type t = {
  engine : Engine.t;
  table : Packet.table;
  metrics : Metrics.t;
  min_rto : float;
  (* Per-flow wiring *)
  cc : Cc.t array;
  rng : Prng.t array;
  workload : Workload.t array;
  transmit : (int -> unit) array;
  start_mode : [ `Immediate | `Off_draw ] array;
  (* Registered per-flow callbacks: the pacing-stall wake and the end of
     an off period. *)
  wake : Engine.handle array;
  off_end : Engine.handle array;
  (* Workload state *)
  on : bool array;
  demand_is_time : bool array;
  demand_seg : int array; (* valid when [not demand_is_time] *)
  demand_until : float array; (* valid when [demand_is_time] *)
  conn : int array; (* -1 before the first connection *)
  conns_started : int array;
  (* Reliability state (per connection) *)
  next_seq : int array;
  highest_sent : int array; (* one past the highest seq ever sent *)
  cum_acked : int array;
  dup_acks : int array;
  in_recovery : bool array;
  recover_seq : int array;
  partial_rearmed : bool array;
      (* RFC 6582 "impatient": re-arm the RTO only on the first partial
         ACK *)
  retx_count : int array;
  timeout_count : int array;
  (* RTT estimation / RTO; srtt is NaN before the first sample. *)
  srtt : float array;
  rttvar : float array;
  rto_backoff : float array;
  (* Lazy retransmission timer: [timer_deadline] is the authoritative
     expiry and re-arming just rewrites it.  An agenda event is only
     scheduled when none is outstanding at or before the deadline
     ([timer_event_at] tracks the live event's fire time, [timer_gen]
     invalidates superseded ones); an event that fires before the
     deadline reschedules itself.  Since deadlines almost always move
     later (each ACK pushes the RTO out), the per-ACK cost is two array
     writes instead of a closure allocation and an agenda push. *)
  timer_armed : bool array;
  timer_deadline : float array;
  timer_event_at : float array; (* infinity when no live event *)
  timer_gen : int array;
  (* Pacing *)
  last_send : float array;
  wake_armed : bool array;
}

let max_rto = 60.

(* --- introspection -------------------------------------------------- *)

let is_on t i = t.on.(i)
let next_seq t i = t.next_seq.(i)
let cum_acked t i = t.cum_acked.(i)
let connections_started t i = t.conns_started.(i)
let retransmissions t i = t.retx_count.(i)
let timeouts t i = t.timeout_count.(i)
let srtt t i = if Float.is_nan t.srtt.(i) then None else Some t.srtt.(i)
let cwnd t i = t.cc.(i).Cc.pacing.Cc.window
let pacing_gap t i = t.cc.(i).Cc.pacing.Cc.intersend
let rto_backoff t i = t.rto_backoff.(i)
let in_flight t i = Int.max 0 (t.next_seq.(i) - t.cum_acked.(i) - t.dup_acks.(i))

(* Inlined into [arm_timer], so the per-ACK re-arm boxes no float. *)
let[@inline] current_rto t i =
  let base =
    if Float.is_nan t.srtt.(i) then 1.0 else t.srtt.(i) +. (4. *. t.rttvar.(i))
  in
  Float.min max_rto (Float.max t.min_rto base *. t.rto_backoff.(i))

let segments_remaining t i =
  if t.demand_is_time.(i) then
    if Engine.now t.engine < t.demand_until.(i) then max_int else 0
  else t.demand_seg.(i) - t.next_seq.(i)

(* --- transmission ---------------------------------------------------- *)

let rec schedule_timer_event t i at =
  t.timer_gen.(i) <- t.timer_gen.(i) + 1;
  let gen = t.timer_gen.(i) in
  t.timer_event_at.(i) <- at;
  Engine.schedule t.engine at (fun () -> timer_event t i gen)

and timer_event t i gen =
  if gen = t.timer_gen.(i) then begin
    t.timer_event_at.(i) <- Float.infinity;
    if t.timer_armed.(i) then begin
      if Engine.now t.engine >= t.timer_deadline.(i) then on_rto t i
      else
        (* Deadline moved later since this event was scheduled: chase it. *)
        schedule_timer_event t i t.timer_deadline.(i)
    end
  end

and arm_timer t i =
  t.timer_armed.(i) <- true;
  t.timer_deadline.(i) <- Engine.now t.engine +. current_rto t i;
  if t.timer_deadline.(i) < t.timer_event_at.(i) then
    schedule_timer_event t i t.timer_deadline.(i)

and disarm_timer t i = t.timer_armed.(i) <- false

(* remy-lint: hot *)
and send_packet t i ~seq =
  let now = Engine.now t.engine in
  let retx = seq < t.highest_sent.(i) in
  let cc = t.cc.(i) in
  let flags =
    (if retx then Packet.retx else 0)
    lor if cc.Cc.ecn_capable then Packet.ecn_capable else 0
  in
  let h = Packet.acquire t.table ~flow:i ~seq ~conn:t.conn.(i) ~flags ~now in
  cc.Cc.stamp t.table h;
  if retx then t.retx_count.(i) <- t.retx_count.(i) + 1;
  t.highest_sent.(i) <- Int.max t.highest_sent.(i) (seq + 1);
  t.last_send.(i) <- now;
  t.transmit.(i) h;
  if not t.timer_armed.(i) then arm_timer t i

(* remy-lint: hot *)
and try_send t i =
  if t.on.(i) then begin
    let now = Engine.now t.engine in
    let pacing = t.cc.(i).Cc.pacing in
    let window = Int.max 1 (int_of_float (Float.max 0. pacing.Cc.window)) in
    if in_flight t i < window && segments_remaining t i > 0 then begin
      let allowed_at = t.last_send.(i) +. pacing.Cc.intersend in
      if now +. 1e-12 >= allowed_at then begin
        send_packet t i ~seq:t.next_seq.(i);
        t.next_seq.(i) <- t.next_seq.(i) + 1;
        try_send t i
      end
      else if not t.wake_armed.(i) then begin
        t.wake_armed.(i) <- true;
        Engine.schedule_handle t.engine allowed_at t.wake.(i)
      end
    end
  end

(* --- loss events ------------------------------------------------------ *)

and on_rto t i =
  t.timer_armed.(i) <- false;
  if t.on.(i) && t.highest_sent.(i) > t.cum_acked.(i) then begin
    let now = Engine.now t.engine in
    t.timeout_count.(i) <- t.timeout_count.(i) + 1;
    (let tr = Engine.tracer t.engine in
     if Remy_obs.Trace.is_on tr then
       Remy_obs.Trace.sender_event tr ~now ~kind:Remy_obs.Trace.Timeout ~flow:i
         ~seq:t.cum_acked.(i));
    t.rto_backoff.(i) <- Float.min 64. (t.rto_backoff.(i) *. 2.);
    t.dup_acks.(i) <- 0;
    t.in_recovery.(i) <- false;
    (* RFC 6582 "careful" variant: dupACKs provoked by our own go-back-N
       retransmissions (cum <= recover_seq) must not trigger another fast
       retransmit, or a spurious timeout degenerates into an endless
       halving loop. *)
    t.recover_seq.(i) <- t.highest_sent.(i);
    (* Go-back-N: everything past the cumulative ACK is presumed lost and
       will be re-sent under slow start; the receiver's reorder buffer
       collapses the re-sent span quickly via cumulative-ACK jumps. *)
    t.next_seq.(i) <- t.cum_acked.(i);
    t.cc.(i).Cc.on_timeout ~now;
    arm_timer t i;
    try_send t i
  end

(* --- workload switching ----------------------------------------------- *)

and switch_on t i =
  let now = Engine.now t.engine in
  t.on.(i) <- true;
  t.conn.(i) <- t.conn.(i) + 1;
  t.conns_started.(i) <- t.conns_started.(i) + 1;
  t.next_seq.(i) <- 0;
  t.highest_sent.(i) <- 0;
  t.cum_acked.(i) <- 0;
  t.dup_acks.(i) <- 0;
  t.in_recovery.(i) <- false;
  t.recover_seq.(i) <- -1;
  t.partial_rearmed.(i) <- false;
  t.srtt.(i) <- Float.nan;
  t.rttvar.(i) <- 0.;
  t.rto_backoff.(i) <- 1.;
  disarm_timer t i;
  t.last_send.(i) <- neg_infinity;
  t.cc.(i).Cc.reset ~now;
  Metrics.flow_on t.metrics i now;
  (match Workload.sample_on t.workload.(i) t.rng.(i) with
  | Workload.Packets n ->
    t.demand_is_time.(i) <- false;
    t.demand_seg.(i) <- n
  | Workload.Seconds s ->
    t.demand_is_time.(i) <- true;
    t.demand_until.(i) <- now +. s;
    if Float.is_finite s then begin
      let conn = t.conn.(i) in
      Engine.schedule_in t.engine s (fun () ->
          if t.on.(i) && t.conn.(i) = conn then switch_off t i)
    end);
  try_send t i

and switch_off t i =
  let now = Engine.now t.engine in
  t.on.(i) <- false;
  disarm_timer t i;
  Metrics.flow_off t.metrics i now;
  let off = Workload.sample_off t.workload.(i) t.rng.(i) in
  if Float.is_finite off then Engine.schedule_handle_in t.engine off t.off_end.(i)

let start t i =
  match t.start_mode.(i) with
  | `Immediate -> switch_on t i
  | `Off_draw ->
    let off = Workload.sample_off t.workload.(i) t.rng.(i) in
    if Float.is_finite off then Engine.schedule_handle_in t.engine off t.off_end.(i)

let create ~table engine ~metrics ~min_rto (flows : flow array) =
  let n = Array.length flows in
  if n < 1 then invalid_arg "Senders.create: no flows";
  let t =
    {
      engine;
      table;
      metrics;
      min_rto;
      cc = Array.map (fun (f : flow) -> f.cc) flows;
      rng = Array.map (fun (f : flow) -> f.rng) flows;
      workload = Array.map (fun (f : flow) -> f.workload) flows;
      transmit = Array.map (fun (f : flow) -> f.transmit) flows;
      start_mode = Array.map (fun (f : flow) -> f.start) flows;
      wake = Array.make n Engine.no_handle;
      off_end = Array.make n Engine.no_handle;
      on = Array.make n false;
      demand_is_time = Array.make n false;
      demand_seg = Array.make n 0;
      demand_until = Array.make n 0.;
      conn = Array.make n (-1);
      conns_started = Array.make n 0;
      next_seq = Array.make n 0;
      highest_sent = Array.make n 0;
      cum_acked = Array.make n 0;
      dup_acks = Array.make n 0;
      in_recovery = Array.make n false;
      recover_seq = Array.make n (-1);
      partial_rearmed = Array.make n false;
      retx_count = Array.make n 0;
      timeout_count = Array.make n 0;
      srtt = Array.make n Float.nan;
      rttvar = Array.make n 0.;
      rto_backoff = Array.make n 1.;
      timer_armed = Array.make n false;
      timer_deadline = Array.make n Float.infinity;
      timer_event_at = Array.make n Float.infinity;
      timer_gen = Array.make n 0;
      last_send = Array.make n neg_infinity;
      wake_armed = Array.make n false;
    }
  in
  for i = 0 to n - 1 do
    t.wake.(i) <-
      Engine.register engine (fun () ->
          t.wake_armed.(i) <- false;
          try_send t i);
    t.off_end.(i) <- Engine.register engine (fun () -> switch_on t i)
  done;
  t

(* --- ACK processing ---------------------------------------------------- *)

let complete_if_done t i =
  if (not t.demand_is_time.(i)) && t.cum_acked.(i) >= t.demand_seg.(i) && t.on.(i)
  then switch_off t i

(* [h] is the ACK's handle (its data packet's, see Receiver_bank); the
   caller releases it after this returns.  [send_packet] may grow the
   table, so every column is read through [t.table] at its use. *)
(* remy-lint: hot *)
let handle_ack t i h =
  let tbl = t.table in
  if t.on.(i) && tbl.Packet.conn.{h} = t.conn.(i) then begin
    let now = Engine.now t.engine in
    let cc = t.cc.(i) in
    let rtt_s =
      if tbl.Packet.flags.{h} land Packet.retx <> 0 then Float.nan
      else now -. tbl.Packet.sent_at.{h}
    in
    (* RFC 6298 estimator (NaN = no Karn-valid sample). *)
    if not (Float.is_nan rtt_s) then begin
      if Float.is_nan t.srtt.(i) then begin
        t.srtt.(i) <- rtt_s;
        t.rttvar.(i) <- rtt_s /. 2.
      end
      else begin
        t.rttvar.(i) <-
          (0.75 *. t.rttvar.(i)) +. (0.25 *. Float.abs (t.srtt.(i) -. rtt_s));
        t.srtt.(i) <- (0.875 *. t.srtt.(i)) +. (0.125 *. rtt_s)
      end
    end;
    let cum_ack = tbl.Packet.cum_ack.{h} in
    let newly = cum_ack - t.cum_acked.(i) in
    if newly > 0 then begin
      t.cum_acked.(i) <- cum_ack;
      if t.next_seq.(i) < cum_ack then t.next_seq.(i) <- cum_ack;
      t.dup_acks.(i) <- 0;
      t.rto_backoff.(i) <- 1.;
      if t.in_recovery.(i) then begin
        if cum_ack >= t.recover_seq.(i) then begin
          t.in_recovery.(i) <- false;
          arm_timer t i
        end
        else begin
          (* NewReno partial ACK: retransmit the next hole immediately,
             re-arming the timer only once per episode (impatient
             variant) so the RTO backstop can cut short long hole-by-hole
             recoveries. *)
          send_packet t i ~seq:cum_ack;
          if not t.partial_rearmed.(i) then begin
            t.partial_rearmed.(i) <- true;
            arm_timer t i
          end
        end
      end
      else if t.highest_sent.(i) > cum_ack then arm_timer t i
      else disarm_timer t i;
      if t.highest_sent.(i) <= cum_ack then disarm_timer t i
    end
    else begin
      t.dup_acks.(i) <- t.dup_acks.(i) + 1;
      (* Enter fast retransmit only when the cumulative ACK has advanced
         past the previous recovery point (RFC 6582's careful variant),
         so retransmission-induced dupACKs cannot restart recovery. *)
      if
        t.dup_acks.(i) = 3
        && (not t.in_recovery.(i))
        && t.cum_acked.(i) > t.recover_seq.(i)
      then begin
        t.in_recovery.(i) <- true;
        t.recover_seq.(i) <- t.next_seq.(i);
        t.partial_rearmed.(i) <- false;
        cc.Cc.on_loss ~now;
        send_packet t i ~seq:t.cum_acked.(i)
      end
    end;
    cc.Cc.on_ack t.table h ~now ~newly_acked:(Int.max 0 newly)
      ~in_recovery:t.in_recovery.(i);
    complete_if_done t i;
    try_send t i
  end
