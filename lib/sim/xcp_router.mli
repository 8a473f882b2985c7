(** XCP router (Katabi, Handley & Rohrs, SIGCOMM 2002).

    The explicit-feedback baseline of Section 5.  Every control interval
    (the mean RTT of traffic seen in the previous interval) the router
    computes the aggregate feedback

      phi = alpha * d * spare_bandwidth - beta * persistent_queue

    splits it (after fairness "shuffling" of 10% of traffic) into
    per-packet positive feedback proportional to rtt^2/cwnd and negative
    feedback proportional to rtt, and writes the window delta into each
    passing packet's congestion header.  Senders ({!Remy_cc.Xcp}) apply
    the echoed delta per ACK.  Works in packets and seconds: the router
    must be told the outgoing link capacity — the known XCP limitation on
    variable-rate links that footnote 6 of the paper works around by
    supplying the long-term average rate. *)

val create :
  Engine.t ->
  ?tracer:Remy_obs.Trace.t ->
  table:Packet.table ->
  capacity_pps:float ->
  queue_capacity:int ->
  ?alpha:float ->
  ?beta:float ->
  ?gamma:float ->
  unit ->
  Qdisc.t
(** Defaults: alpha 0.4, beta 0.226, shuffle fraction gamma 0.1 (the
    constants proven stable in the XCP paper).  [queue_capacity] in
    packets (tail drop). *)
