(** Tail-drop FIFO queue — the paper's default 1000-packet DropTail
    bottleneck (Section 5.1), and with {!Qdisc.unlimited_capacity} the
    lossless queue of Remy's design-phase simulator. *)

val create :
  ?tracer:Remy_obs.Trace.t -> table:Packet.table -> capacity:int -> unit -> Qdisc.t
(** [capacity] in packets; the queue holds handles into [table].
    [tracer] (default off) records enqueue/dequeue/drop events. *)
