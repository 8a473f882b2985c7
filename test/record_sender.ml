(* The per-record TCP sender: one mutable record per flow, driving any
   [Cc.t].  It is the test oracle of the structure-of-arrays
   [Remy_cc.Senders] core, which must emit the same transmissions and
   flow summaries on every input (test_tcp_sender's property).  A record
   per flow cannot read another flow's slot, so an index slip in the
   core's arrays shows as a divergence. *)

open Remy_cc
open Remy_sim
open Remy_util

type config = {
  flow : int;
  cc : Cc.t;
  workload : Workload.t;
  start : [ `Immediate | `Off_draw ];
  min_rto : float;
}

type demand = Segments of int | Until of float

type t = {
  engine : Engine.t;
  config : config;
  transmit : int -> unit;
  metrics : Metrics.t;
  rng : Prng.t;
  table : Packet.table;
  (* Workload state *)
  mutable on : bool;
  mutable demand : demand;
  mutable conn : int;  (* -1 before first connection *)
  mutable conns_started : int;
  (* Reliability state (per connection) *)
  mutable next_seq : int;
  mutable highest_sent : int;  (* one past the highest seq ever sent *)
  mutable cum_acked : int;
  mutable dup_acks : int;
  mutable in_recovery : bool;
  mutable recover_seq : int;
  mutable partial_rearmed : bool;  (* RFC 6582 "impatient": re-arm RTO
                                      only on the first partial ACK *)
  mutable retx_count : int;
  (* RTT estimation / RTO.  [srtt_s] is NaN before the first sample
     (avoids boxing an option per ACK in the estimator). *)
  mutable srtt_s : float;
  mutable rttvar : float;
  mutable rto_backoff : float;
  (* Lazy retransmission timer: [timer_deadline] is the authoritative
     expiry and re-arming just rewrites it.  An agenda event is only
     scheduled when none is outstanding at or before the deadline
     ([timer_event_at] tracks the live event's fire time, [timer_gen]
     invalidates superseded ones); an event that fires before the
     deadline reschedules itself.  Since deadlines almost always move
     later (each ACK pushes the RTO out), the per-ACK cost is two field
     writes instead of a closure allocation and an agenda push. *)
  mutable timer_armed : bool;
  mutable timer_deadline : float;
  mutable timer_event_at : float;  (* infinity when no live event *)
  mutable timer_gen : int;
  mutable timeout_count : int;
  (* Pacing *)
  mutable last_send : float;
  mutable wake_armed : bool;
  (* Registered callbacks: the pacing-stall wake and the end of an off
     period. *)
  mutable wake : Engine.handle;
  mutable off_end : Engine.handle;
}

let max_rto = 60.

let create ~table engine config ~transmit ~metrics ~rng =
  let t =
    {
      engine;
      config;
      transmit;
      metrics;
      rng;
      table;
      on = false;
      demand = Segments 0;
      conn = -1;
      conns_started = 0;
      next_seq = 0;
      highest_sent = 0;
      cum_acked = 0;
      dup_acks = 0;
      in_recovery = false;
      recover_seq = -1;
      partial_rearmed = false;
      retx_count = 0;
      srtt_s = Float.nan;
      rttvar = 0.;
      rto_backoff = 1.;
      timer_armed = false;
      timer_deadline = Float.infinity;
      timer_event_at = Float.infinity;
      timer_gen = 0;
      timeout_count = 0;
      last_send = neg_infinity;
      wake_armed = false;
      wake = Engine.no_handle;
      off_end = Engine.no_handle;
    }
  in
  t
(* [wake] and [off_end] are registered in the second [create] below,
   after the recursive send/ack functions exist. *)

let is_on t = t.on
let next_seq t = t.next_seq
let cum_acked t = t.cum_acked
let connections_started t = t.conns_started
let retransmissions t = t.retx_count
let timeouts t = t.timeout_count
let srtt t = if Float.is_nan t.srtt_s then None else Some t.srtt_s
let cwnd t = t.config.cc.Cc.pacing.Cc.window
let pacing_gap t = t.config.cc.Cc.pacing.Cc.intersend
let rto_backoff t = t.rto_backoff

let in_flight t = Int.max 0 (t.next_seq - t.cum_acked - t.dup_acks)

let current_rto t =
  let base =
    if Float.is_nan t.srtt_s then 1.0 else t.srtt_s +. (4. *. t.rttvar)
  in
  Float.min max_rto (Float.max t.config.min_rto base *. t.rto_backoff)

let segments_remaining t =
  match t.demand with
  | Segments total -> total - t.next_seq
  | Until deadline -> if Engine.now t.engine < deadline then max_int else 0

(* --- transmission ------------------------------------------------- *)

let rec schedule_timer_event t at =
  t.timer_gen <- t.timer_gen + 1;
  let gen = t.timer_gen in
  t.timer_event_at <- at;
  Engine.schedule t.engine at (fun () -> timer_event t gen)

and timer_event t gen =
  if gen = t.timer_gen then begin
    t.timer_event_at <- Float.infinity;
    if t.timer_armed then begin
      if Engine.now t.engine >= t.timer_deadline then on_rto t
      else
        (* Deadline moved later since this event was scheduled: chase it. *)
        schedule_timer_event t t.timer_deadline
    end
  end

and arm_timer t =
  t.timer_armed <- true;
  t.timer_deadline <- Engine.now t.engine +. current_rto t;
  if t.timer_deadline < t.timer_event_at then
    schedule_timer_event t t.timer_deadline

and disarm_timer t = t.timer_armed <- false

and send_packet t ~seq =
  let now = Engine.now t.engine in
  let retx = seq < t.highest_sent in
  let cc = t.config.cc in
  let flags =
    (if retx then Packet.retx else 0)
    lor if cc.Cc.ecn_capable then Packet.ecn_capable else 0
  in
  let h = Packet.acquire t.table ~flow:t.config.flow ~seq ~conn:t.conn ~flags ~now in
  cc.Cc.stamp t.table h;
  if retx then t.retx_count <- t.retx_count + 1;
  t.highest_sent <- Int.max t.highest_sent (seq + 1);
  t.last_send <- now;
  t.transmit h;
  if not t.timer_armed then arm_timer t

and try_send t =
  if t.on then begin
    let now = Engine.now t.engine in
    let window = Int.max 1 (int_of_float (Float.max 0. (cwnd t))) in
    if in_flight t < window && segments_remaining t > 0 then begin
      let gap = pacing_gap t in
      let allowed_at = t.last_send +. gap in
      if now +. 1e-12 >= allowed_at then begin
        send_packet t ~seq:t.next_seq;
        t.next_seq <- t.next_seq + 1;
        try_send t
      end
      else if not t.wake_armed then begin
        t.wake_armed <- true;
        Engine.schedule_handle t.engine allowed_at t.wake
      end
    end
  end

(* --- loss events --------------------------------------------------- *)

and on_rto t =
  t.timer_armed <- false;
  if t.on && t.highest_sent > t.cum_acked then begin
    let now = Engine.now t.engine in
    t.timeout_count <- t.timeout_count + 1;
    (let tr = Engine.tracer t.engine in
     if Remy_obs.Trace.is_on tr then
       Remy_obs.Trace.sender_event tr ~now ~kind:Remy_obs.Trace.Timeout
         ~flow:t.config.flow ~seq:t.cum_acked);
    t.rto_backoff <- Float.min 64. (t.rto_backoff *. 2.);
    t.dup_acks <- 0;
    t.in_recovery <- false;
    (* RFC 6582 "careful" variant: dupACKs provoked by our own go-back-N
       retransmissions (cum <= recover_seq) must not trigger another fast
       retransmit, or a spurious timeout degenerates into an endless
       halving loop. *)
    t.recover_seq <- t.highest_sent;
    (* Go-back-N: everything past the cumulative ACK is presumed lost and
       will be re-sent under slow start; the receiver's reorder buffer
       collapses the re-sent span quickly via cumulative-ACK jumps. *)
    t.next_seq <- t.cum_acked;
    t.config.cc.Cc.on_timeout ~now;
    arm_timer t;
    try_send t
  end

(* --- workload switching -------------------------------------------- *)

and switch_on t =
  let now = Engine.now t.engine in
  t.on <- true;
  t.conn <- t.conn + 1;
  t.conns_started <- t.conns_started + 1;
  t.next_seq <- 0;
  t.highest_sent <- 0;
  t.cum_acked <- 0;
  t.dup_acks <- 0;
  t.in_recovery <- false;
  t.recover_seq <- -1;
  t.partial_rearmed <- false;
  t.srtt_s <- Float.nan;
  t.rttvar <- 0.;
  t.rto_backoff <- 1.;
  disarm_timer t;
  t.last_send <- neg_infinity;
  t.config.cc.Cc.reset ~now;
  Metrics.flow_on t.metrics t.config.flow now;
  (match Workload.sample_on t.config.workload t.rng with
  | Workload.Packets n -> t.demand <- Segments n
  | Workload.Seconds s ->
    t.demand <- Until (now +. s);
    if Float.is_finite s then
      let conn = t.conn in
      Engine.schedule_in t.engine s (fun () ->
          if t.on && t.conn = conn then switch_off t));
  try_send t

and switch_off t =
  let now = Engine.now t.engine in
  t.on <- false;
  disarm_timer t;
  Metrics.flow_off t.metrics t.config.flow now;
  let off = Workload.sample_off t.config.workload t.rng in
  if Float.is_finite off then Engine.schedule_handle_in t.engine off t.off_end

let start t =
  match t.config.start with
  | `Immediate -> switch_on t
  | `Off_draw ->
    let off = Workload.sample_off t.config.workload t.rng in
    if Float.is_finite off then Engine.schedule_handle_in t.engine off t.off_end

let create ~table engine config ~transmit ~metrics ~rng =
  let t = create ~table engine config ~transmit ~metrics ~rng in
  t.wake <-
    Engine.register engine (fun () ->
        t.wake_armed <- false;
        try_send t);
  t.off_end <- Engine.register engine (fun () -> switch_on t);
  t

(* --- ACK processing ------------------------------------------------ *)

let complete_if_done t =
  match t.demand with
  | Segments total when t.cum_acked >= total && t.on -> switch_off t
  | Segments _ | Until _ -> ()

(* The ACK is its data packet's handle: the columns read here are the
   echo of that packet (see Receiver_bank).  [send_packet] may grow the
   table, so every column is read through [tbl] at its use. *)
let handle_ack t h =
  let tbl = t.table in
  if t.on && tbl.Packet.conn.{h} = t.conn then begin
    let now = Engine.now t.engine in
    let cc = t.config.cc in
    let rtt_s =
      if tbl.Packet.flags.{h} land Packet.retx <> 0 then Float.nan
      else now -. tbl.Packet.sent_at.{h}
    in
    (* RFC 6298 estimator (NaN = no Karn-valid sample). *)
    if not (Float.is_nan rtt_s) then begin
      if Float.is_nan t.srtt_s then begin
        t.srtt_s <- rtt_s;
        t.rttvar <- rtt_s /. 2.
      end
      else begin
        t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt_s -. rtt_s));
        t.srtt_s <- (0.875 *. t.srtt_s) +. (0.125 *. rtt_s)
      end
    end;
    let cum_ack = tbl.Packet.cum_ack.{h} in
    let newly = cum_ack - t.cum_acked in
    if newly > 0 then begin
      t.cum_acked <- cum_ack;
      if t.next_seq < t.cum_acked then t.next_seq <- t.cum_acked;
      t.dup_acks <- 0;
      t.rto_backoff <- 1.;
      if t.in_recovery then begin
        if t.cum_acked >= t.recover_seq then begin
          t.in_recovery <- false;
          arm_timer t
        end
        else begin
          (* NewReno partial ACK: retransmit the next hole immediately,
             re-arming the timer only once per episode (impatient
             variant) so the RTO backstop can cut short long hole-by-hole
             recoveries. *)
          send_packet t ~seq:t.cum_acked;
          if not t.partial_rearmed then begin
            t.partial_rearmed <- true;
            arm_timer t
          end
        end
      end
      else if t.highest_sent > t.cum_acked then arm_timer t
      else disarm_timer t;
      if t.highest_sent <= t.cum_acked then disarm_timer t
    end
    else begin
      t.dup_acks <- t.dup_acks + 1;
      (* Enter fast retransmit only when the cumulative ACK has advanced
         past the previous recovery point (RFC 6582's careful variant),
         so retransmission-induced dupACKs cannot restart recovery. *)
      if t.dup_acks = 3 && (not t.in_recovery) && t.cum_acked > t.recover_seq then begin
        t.in_recovery <- true;
        t.recover_seq <- t.next_seq;
        t.partial_rearmed <- false;
        cc.Cc.on_loss ~now;
        send_packet t ~seq:t.cum_acked
      end
    end;
    cc.Cc.on_ack tbl h ~now ~newly_acked:(Int.max 0 newly) ~in_recovery:t.in_recovery;
    complete_if_done t;
    try_send t
  end
