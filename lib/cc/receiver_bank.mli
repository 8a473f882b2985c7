(** Structure-of-arrays receivers, one per flow.

    The receivers' hot per-ack state ([expected], [conn]) lives in flat
    int arrays.  Every data segment is acknowledged (the paper's
    receivers are stock TCP receivers sending periodic ACK feedback),
    and each ACK echoes the segment's sequence number, send timestamp
    and ECN mark — exactly the feedback a RemyCC memory consumes.  A new
    connection (higher [conn] counter) resets the flow's reorder state;
    duplicate segments are acknowledged but not recounted in metrics.
    Always pooled: arriving packets are released back to the pool on
    every path, and ACKs are acquired from it (the sender side must
    release them after [handle_ack], as {!Topology.run} does). *)

type t

val create :
  ?delivery_hook:(flow:int -> now:float -> seq:int -> unit) ->
  ?delack:int * float ->
  Remy_sim.Engine.t ->
  metrics:Remy_sim.Metrics.t ->
  pool:Remy_sim.Packet.Pool.pool ->
  ack_sink:(int -> Remy_sim.Packet.ack -> unit) ->
  fwd_delay:float array ->
  t
(** [fwd_delay.(flow)] is the flow's total forward propagation delay in
    seconds (its length fixes the number of receivers); queueing delay
    of an arrival is [now - sent_at - fwd_delay].  [delivery_hook]
    observes every fresh data arrival (Fig. 6's sequence plot).
    [delack] = [(every, timeout)] switches from per-packet ACKs to
    RFC 1122-style delayed ACKs: in-order arrivals are acknowledged in
    batches of [every], with a [timeout]-second timer (on the engine)
    flushing stragglers; out-of-order, duplicate and hole-filling
    arrivals are acknowledged at once so fast retransmit still works. *)

val receive : t -> now:float -> int -> Remy_sim.Packet.t -> unit
(** [receive t ~now flow pkt] takes ownership of [pkt]. *)

val expected : t -> int -> int
(** Next in-order sequence number for a flow. *)

val delivered : t -> int
(** Fresh data packets accepted across all flows. *)
