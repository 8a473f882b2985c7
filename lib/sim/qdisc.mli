(** Queue-discipline interface shared by the bottleneck router variants.

    A qdisc owns the packet handles waiting for the bottleneck link.
    [enqueue] may drop (tail drop, CoDel, RED) or ECN-mark; [dequeue]
    returns the next handle to serve and may itself drop packets first
    (CoDel drops at the head of the queue).  A qdisc releases every
    handle it drops to its {!Packet.table}.  Implementations must be
    deterministic given their construction arguments. *)

type t = {
  name : string;
  enqueue : now:float -> int -> bool;
      (** [true] if the packet was accepted; [false] if dropped, in
          which case the qdisc has already released the handle. *)
  dequeue : now:float -> int;
      (** the next handle to serve, or {!Packet.none} when empty *)
  length : unit -> int;  (** packets currently queued *)
  byte_length : unit -> int;
  drops : unit -> int;  (** cumulative count, for diagnostics *)
}

val unlimited_capacity : int
(** Sentinel packet capacity meaning "never tail-drop" — Remy's
    design-phase simulator runs with unlimited queues (Section 5.1). *)
