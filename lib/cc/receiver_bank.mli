(** Structure-of-arrays receivers, one per flow.

    The receivers' hot per-ack state ([expected], [conn]) lives in flat
    int arrays.  Every data segment is acknowledged (the paper's
    receivers are stock TCP receivers sending periodic ACK feedback),
    and each ACK echoes the segment's sequence number, send timestamp
    and ECN mark — exactly the feedback a RemyCC memory consumes.  A new
    connection (higher [conn] counter) resets the flow's reorder state;
    duplicate segments are acknowledged but not recounted in metrics.
    An acknowledged packet's handle becomes its ACK (see
    {!Remy_sim.Packet}), which the ACK sink then owns and must release
    after the sender has handled it, as {!Topology.run} does; every
    other arrival is released to the table here. *)

type t

val create :
  ?delivery_hook:(flow:int -> now:float -> seq:int -> unit) ->
  ?delack:int * float ->
  Remy_sim.Engine.t ->
  metrics:Remy_sim.Metrics.t ->
  table:Remy_sim.Packet.table ->
  ack_sink:(int -> int -> unit) ->
  fwd_delay:float array ->
  t
(** [ack_sink flow h] receives each ACK's handle.
    [fwd_delay.(flow)] is the flow's total forward propagation delay in
    seconds (its length fixes the number of receivers); queueing delay
    of an arrival is [now - sent_at - fwd_delay].  [delivery_hook]
    observes every fresh data arrival (Fig. 6's sequence plot).
    [delack] = [(every, timeout)] switches from per-packet ACKs to
    RFC 1122-style delayed ACKs: in-order arrivals are acknowledged in
    batches of [every], with a [timeout]-second timer (on the engine)
    flushing stragglers; out-of-order, duplicate and hole-filling
    arrivals are acknowledged at once so fast retransmit still works. *)

val receive : t -> now:float -> int -> int -> unit
(** [receive t ~now flow h] takes ownership of the packet handle [h]. *)

val expected : t -> int -> int
(** Next in-order sequence number for a flow. *)

val delivered : t -> int
(** Fresh data packets accepted across all flows. *)

val pending : t -> int
(** Packets held for a delayed ACK, across all flows. *)
