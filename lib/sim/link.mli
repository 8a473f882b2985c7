(** Bottleneck link: serves packets from a queue discipline.

    Two service models, matching the paper's evaluation:

    - constant rate (the dumbbell and datacenter topologies): one packet
      transmission takes size/rate seconds;
    - trace-driven (the cellular experiments): queued packets are
      released at exactly the delivery instants of a pre-recorded trace,
      "queueing packets until they are released to the receiver at the
      same time they were released in the trace" (Section 5.3).

    Delivered packet handles go to [sink], which the topology wires to
    add propagation delay and hand the packet to a receiver; a corrupt
    packet is released to the table at link exit instead. *)

type t

val create_constant :
  Engine.t ->
  table:Packet.table ->
  qdisc:Qdisc.t ->
  bytes_per_sec:float ->
  sink:(int -> unit) ->
  t

val create_trace :
  Engine.t ->
  table:Packet.table ->
  qdisc:Qdisc.t ->
  next_gap:(unit -> float) ->
  sink:(int -> unit) ->
  t
(** [next_gap ()] returns the time until the next delivery opportunity
    (one packet per opportunity); the chain of opportunities starts at
    creation time. *)

val send : t -> int -> unit
(** Enqueue a packet (the qdisc may drop or mark it) and start service if
    the link is idle. *)

val kick : t -> unit
(** Start service if the link is idle and the qdisc non-empty.  Needed
    by fault injectors that enqueue into the qdisc behind the link's
    back (e.g. a reordered packet re-entering after its hold). *)

val is_up : t -> bool

val set_up : t -> bool -> unit
(** Outage control (default up).  A down link serves nothing: packets
    park in the qdisc (or are dropped there by its own policy) until the
    link comes back up, at which point service restarts.  A transmission
    already in progress completes — the packet was on the wire. *)

val rate_bytes_per_sec : t -> float option
(** Current service rate; [None] for trace-driven links. *)

val set_rate_bytes_per_sec : t -> float -> unit
(** Mid-run bandwidth shift, from the next packet entering service.
    No-op on trace-driven links. *)

val qdisc : t -> Qdisc.t

val in_service : t -> int
(** Packets in transmission: 1 while a constant-rate link is busy, else
    0. *)

val delivered_packets : t -> int
val delivered_bytes : t -> int

val corrupt_drops : t -> int
(** Packets that consumed service capacity but arrived corrupt and were
    dropped at link exit (fault injection). *)

val bytes_per_sec_of_mbps : float -> float
val pps_of_mbps : float -> float
(** Packets per second at the {!Packet.default_size} segment size. *)
