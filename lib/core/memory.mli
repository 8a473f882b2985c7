(** The RemyCC memory: the three congestion signals of Section 4.1.

    - [ack_ewma]: EWMA of the interarrival time between new ACKs
      (strictly, between the receiver timestamps they echo), ms;
    - [send_ewma]: EWMA of the spacing of the sender timestamps echoed
      in those ACKs, ms;
    - [rtt_ratio]: most recent RTT divided by the connection's minimum.

    Both EWMAs give weight 1/8 to the new sample and blend from the
    well-known all-zeroes initial state.  Values live in the cube
    [0, 16384) per dimension (Section 4.3); deliberately absent are raw
    RTT and packet loss (Section 4.1 explains why). *)

type t = { ack_ewma : float; send_ewma : float; rtt_ratio : float }

val zero : t
(** The flow-start state. *)

val max_value : float
(** 16384, the upper bound of every dimension. *)

val clamp : float -> float
(** The saturation [make] applies to every coordinate:
    [min (max_value - 1e-9) (max 0. v)]. *)

val ewma_weight : float
(** 1/8. *)

type tracker
(** Mutable per-connection signal tracker, stored as flat floats so
    {!observe} updates it without allocating. *)

val tracker : unit -> tracker
val reset : tracker -> unit

val on_ack : tracker -> sent_at:float -> received_at:float -> rtt:float -> t
(** Feed one acknowledgment (times in seconds; [rtt] measured by the
    sender) and return the updated memory. *)

val observe : tracker -> Remy_sim.Packet.table -> int -> now:float -> unit
(** The sender's per-ACK form of {!on_ack}: fold in the ACK [h] that
    arrived at [now], reading [sent_at] and [received_at] from its
    columns, with RTT [now -. sent_at]; allocates nothing.  {!current}
    then reads the memory. *)

val current : tracker -> t

val min_rtt : tracker -> float option
(** Smallest RTT seen this connection, seconds. *)

val last_received_at : tracker -> float
(** Receiver timestamp of the last ACK folded in (NaN before the first),
    so callers can detect a long ACK gap — e.g. a link outage — and
    restart the estimators rather than feed them one giant delta. *)

val get : t -> int -> float
(** Dimension accessor: 0 = ack_ewma, 1 = send_ewma, 2 = rtt_ratio. *)

val make : ack_ewma:float -> send_ewma:float -> rtt_ratio:float -> t
val dims : int
val pp : Format.formatter -> t -> unit
