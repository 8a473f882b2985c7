(** Random Early Detection, plus DCTCP's threshold-marking variant.

    Two modes:

    - {!create} is classic RED (Floyd & Jacobson 1993): an EWMA of the
      queue length; between [min_th] and [max_th] packets are marked (if
      ECN-capable) or dropped with probability growing to [max_p];
      above [max_th] all arrivals are marked/dropped.

    - {!create_dctcp} is the "modified RED" of the DCTCP evaluation
      (Alizadeh et al. 2010, and Section 5.5 here): mark ECN on every
      arriving packet once the {e instantaneous} queue exceeds the
      threshold K; non-ECN-capable packets are never early-dropped, only
      tail-dropped at capacity. *)

val create :
  ?tracer:Remy_obs.Trace.t ->
  table:Packet.table ->
  capacity:int ->
  min_th:float ->
  max_th:float ->
  max_p:float ->
  weight:float ->
  seed:int ->
  unit ->
  Qdisc.t
(** Thresholds in packets; [weight] is the queue-average EWMA gain
    (Floyd's w_q, typically 0.002).  Marking decisions draw from an
    internal deterministic PRNG seeded by [seed].  [tracer] (default
    off) records enqueue/dequeue/drop/ecn_mark events. *)

val create_dctcp :
  ?tracer:Remy_obs.Trace.t ->
  table:Packet.table ->
  capacity:int ->
  threshold:int ->
  unit ->
  Qdisc.t
(** [threshold] K in packets (DCTCP paper uses K = 65 at 10 Gbps). *)
