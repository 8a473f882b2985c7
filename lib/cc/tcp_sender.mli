(** Reliable windowed TCP sender with pluggable congestion control.

    Implements the host machinery every scheme in the evaluation shares:

    - an on/off workload source (Section 3.2): off periods are
      exponential; on periods are a fixed transfer (segments) or a fixed
      duration, after which the connection ends and the next one starts
      with fresh state ("RemyCCs do not keep state from one on period to
      the next");
    - window- and pacing-limited transmission: at most [floor cc.window]
      segments outstanding (minimum one, so a connection can always make
      progress), no two sends closer than [cc.intersend];
    - loss recovery: three duplicate ACKs trigger fast retransmit and a
      NewReno-style recovery episode with partial-ACK retransmissions;
      an RFC 6298 retransmission timer (Karn-filtered RTT samples,
      exponential backoff) recovers from tail loss;
    - outstanding-data estimation credits duplicate ACKs, which yields
      standard self-clocked fast-recovery behavior for every scheme.

    The congestion-control module only ever decides "how big a window,
    how fast to pace" — exactly the paper's division of labor. *)

type config = {
  flow : int;
  cc : Cc.t;
  rtt : float;  (** the flow's two-way propagation delay, seconds *)
  workload : Remy_sim.Workload.t;
  start : [ `Immediate | `Off_draw ];
      (** begin with an "on" period at t=0, or draw an initial off time *)
  min_rto : float;  (** RFC 6298 floor, typically 1.0 or 0.2 s *)
}

type t

val max_rto : float
(** 60 s, RFC 6298's suggested ceiling: however long an outage, the
    retransmission timer never backs off past this, so the sender probes
    a healed path within one minute instead of doubling unboundedly. *)

val create :
  table:Remy_sim.Packet.table ->
  Remy_sim.Engine.t ->
  config ->
  transmit:(int -> unit) ->
  metrics:Remy_sim.Metrics.t ->
  rng:Remy_util.Prng.t ->
  t
(** Outgoing data packets are handles acquired from [table] and handed
    to [transmit]; the receiving side releases them (see
    {!Receiver_bank.create}). *)

val start : t -> unit
(** Arm the workload process (call once before [Engine.run]). *)

val handle_ack : t -> int -> unit
(** Deliver an ACK, by handle into the sender's table, that has crossed
    the reverse path.  The caller keeps ownership of the handle. *)

(** {2 Introspection (tests, Fig. 6 instrumentation)} *)

val is_on : t -> bool
val next_seq : t -> int
val cum_acked : t -> int
val in_flight : t -> int
val connections_started : t -> int
val retransmissions : t -> int
val timeouts : t -> int
val srtt : t -> float option

val cwnd : t -> float
(** The congestion module's current window, in segments (may be
    fractional for RemyCC). *)

val pacing_gap : t -> float
(** The congestion module's current intersend gap, seconds. *)

val current_rto : t -> float
(** The live retransmission timeout: [srtt + 4 rttvar] (1 s before the
    first sample), floored at [config.min_rto], multiplied by the
    exponential backoff, and clamped at {!max_rto}. *)

val rto_backoff : t -> float
(** The exponential backoff multiplier: doubles per timeout (capped at
    64 so the multiplier alone cannot overflow the clamp), and resets
    to 1 on the first ACK that advances the cumulative point. *)
