(** CoDel active queue management (Nichols & Jacobson, ACM Queue 2012).

    Drops at the head of the queue when the packet sojourn time has
    exceeded [target] (5 ms) for at least one [interval] (100 ms),
    spacing subsequent drops by interval/sqrt(count).  {!State} exposes
    the per-queue control machinery so {!Sfq_codel} can run one CoDel
    instance per fair-queueing bin, as in Nichols's sfqcodel. *)

module State : sig
  type t

  val create : ?target:float -> ?interval:float -> unit -> t
  (** Defaults: target 5 ms, interval 100 ms. *)

  val dequeue :
    t ->
    now:float ->
    Fifo.t ->
    on_pop:(int -> unit) ->
    bytes:(unit -> int) ->
    on_drop:(int -> unit) ->
    int
  (** Run the CoDel dequeue state machine over a FIFO whose queued-at
      times are enqueue times, returning the handle to serve or
      {!Packet.none}.  [on_pop] sees every handle taken off the FIFO
      (for byte accounting) before [bytes], the backlog in bytes, is
      read (CoDel never drops below one MTU of backlog); dropped
      handles go to [on_drop], which owns them. *)
end

val create :
  ?tracer:Remy_obs.Trace.t ->
  ?target:float ->
  ?interval:float ->
  table:Packet.table ->
  capacity:int ->
  unit ->
  Qdisc.t
(** Standalone CoDel FIFO with tail-drop at [capacity] packets.
    [tracer] (default off) records enqueue/dequeue events, tail drops,
    and CoDel's head drops. *)
