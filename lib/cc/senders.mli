(** Every flow's TCP sender, as one structure of arrays.

    Implements the host machinery every scheme in the evaluation shares:

    - an on/off workload source (Section 3.2): off periods are
      exponential; on periods are a fixed transfer (segments) or a fixed
      duration, after which the connection ends and the next one starts
      with fresh state ("RemyCCs do not keep state from one on period to
      the next");
    - window- and pacing-limited transmission: at most [floor window]
      segments outstanding (minimum one, so a connection can always make
      progress), no two sends closer than the pacing gap;
    - loss recovery: three duplicate ACKs trigger fast retransmit and a
      NewReno-style recovery episode with partial-ACK retransmissions;
      an RFC 6298 retransmission timer (Karn-filtered RTT samples,
      exponential backoff) recovers from tail loss;
    - outstanding-data estimation credits duplicate ACKs, which yields
      standard self-clocked fast-recovery behavior for every scheme.

    The congestion decision is each flow's own {!Cc.t}, called exactly
    where the sender learns something (connection start, ACK, triple
    dupACK, timeout); it only ever decides "how big a window, how fast to
    pace" — the paper's division of labor.  A population may mix
    algorithms: flow [i] runs whatever [Cc.t] it was given.

    Flow [i]'s state lives at index [i] of flat int, float and bool
    arrays, so thousands of flows cost no per-flow record web, and the
    ACK path ({!handle_ack}) allocates nothing: the CC reads the ACK from
    its handle and publishes its decision in its flat {!Cc.pacing}
    record. *)

type flow = {
  cc : Cc.t;
  workload : Remy_sim.Workload.t;
  start : [ `Immediate | `Off_draw ];
      (** begin with an "on" period at t=0, or draw an initial off time *)
  rng : Remy_util.Prng.t;  (** the flow's workload draws *)
  transmit : int -> unit;  (** hand a data packet to the flow's first hop *)
}

type t

val max_rto : float
(** 60 s, RFC 6298's suggested ceiling: however long an outage, the
    retransmission timer never backs off past this, so the sender probes
    a healed path within one minute instead of doubling unboundedly. *)

val create :
  table:Remy_sim.Packet.table ->
  Remy_sim.Engine.t ->
  metrics:Remy_sim.Metrics.t ->
  min_rto:float ->
  flow array ->
  t
(** One sender per element; flow [i] sends packets of flow id [i] and
    reports to [metrics] as flow [i].  Outgoing data packets are handles
    acquired from [table] and handed to the flow's [transmit]; the
    receiving side releases them (see {!Receiver_bank.create}).
    [min_rto] is the RFC 6298 floor (typically 1.0 or 0.2 s).  Raises
    [Invalid_argument] on an empty array. *)

val start : t -> int -> unit
(** Arm flow [i]'s workload process (once per flow, before
    [Engine.run]). *)

val handle_ack : t -> int -> int -> unit
(** [handle_ack t i h] delivers an ACK for flow [i], by handle into the
    senders' table, that has crossed the reverse path.  The caller keeps
    ownership of the handle. *)

(** {2 Introspection (probes, tests)} *)

val is_on : t -> int -> bool
val next_seq : t -> int -> int
val cum_acked : t -> int -> int
val in_flight : t -> int -> int
val connections_started : t -> int -> int
val retransmissions : t -> int -> int
val timeouts : t -> int -> int
val srtt : t -> int -> float option

val cwnd : t -> int -> float
(** The congestion module's current window, in segments (may be
    fractional for RemyCC). *)

val pacing_gap : t -> int -> float
(** The congestion module's current intersend gap, seconds. *)

val current_rto : t -> int -> float
(** The live retransmission timeout: [srtt + 4 rttvar] (1 s before the
    first sample), floored at [min_rto], multiplied by the exponential
    backoff, and clamped at {!max_rto}. *)

val rto_backoff : t -> int -> float
(** The exponential backoff multiplier: doubles per timeout (capped at
    64 so the multiplier alone cannot overflow the clamp), and resets
    to 1 on the first ACK that advances the cumulative point. *)
