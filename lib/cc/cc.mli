(** Congestion-control interface.

    A congestion-control module is a bundle of callbacks owned by one
    flow.  The host machinery ({!Senders}) delivers ACK, loss and
    timeout events and reads [pacing] before each transmission —
    mirroring the paper's architecture where a RemyCC (or any classical
    algorithm) is implanted into an existing TCP sender and "inherits
    the loss-recovery behavior of whatever TCP sender it is added to"
    (Section 4.1).

    Nothing on the ACK path allocates at this boundary: the ACK arrives
    as its packet handle (with the sender's clock and counters as plain
    arguments), and the module publishes its decision by writing the
    flat float record [pacing], which the sender reads unboxed. *)

type pacing = {
  mutable window : float;  (** congestion window, packets *)
  mutable intersend : float;
      (** minimum seconds between transmissions; [0.] = unpaced *)
}
(** All-float, so both fields are stored and read without boxing. *)

type t = {
  name : string;
  ecn_capable : bool;  (** packets ask for ECN marking instead of drops *)
  pacing : pacing;  (** the module's current decision, kept up to date *)
  reset : now:float -> unit;  (** connection ("on" period) start *)
  on_ack :
    Remy_sim.Packet.table -> int -> now:float -> newly_acked:int -> in_recovery:bool -> unit;
      (** [on_ack tbl h ~now ~newly_acked ~in_recovery]: the ACK [h]
          reached the sender at [now].  Its columns echo the acknowledged
          segment ([sent_at], [flags] with {!Remy_sim.Packet.retx} and
          the ECN mark, the XCP feedback) and carry the receiver's
          [cum_ack] and [received_at]; read them through [tbl] during the
          call, the handle is released after it.  [newly_acked] counts
          segments newly covered by the cumulative ACK; [in_recovery]
          tells whether the sender is in fast recovery. *)
  on_loss : now:float -> unit;  (** triple-dupACK, once per recovery episode *)
  on_timeout : now:float -> unit;
  stamp : Remy_sim.Packet.table -> int -> unit;
      (** write a congestion header into an outgoing packet's columns
          (XCP senders only) *)
}

type factory = unit -> t
(** Fresh algorithm state for one flow. *)

val no_stamp : Remy_sim.Packet.table -> int -> unit
(** Writes nothing: the default for end-to-end schemes. *)

val rtt_valid : Remy_sim.Packet.table -> int -> bool
(** Karn's rule: the ACK [h] yields an RTT sample, [now -. sent_at],
    only when the segment it echoes was not a retransmission. *)
