(** Congestion-control interface.

    A congestion-control module is a bundle of callbacks owned by one
    flow.  The host machinery ({!Tcp_sender}) delivers ACK, loss and
    timeout events and consults [window] / [intersend] before each
    transmission — mirroring the paper's architecture where a RemyCC (or
    any classical algorithm) is implanted into an existing TCP sender and
    "inherits the loss-recovery behavior of whatever TCP sender it is
    added to" (Section 4.1). *)

type ack_info = {
  now : float;  (** virtual time the ACK reached the sender *)
  rtt : float option;
      (** RTT sample from the echoed timestamp; [None] when the echoed
          segment was a retransmission (Karn's rule) *)
  newly_acked : int;  (** segments newly covered by the cumulative ACK *)
  cum_ack : int;  (** next in-order segment the receiver expects *)
  acked_seq : int;  (** segment whose arrival generated this ACK *)
  acked_sent_at : float;  (** echo of that segment's send timestamp *)
  receiver_ts : float;  (** receiver clock when the segment arrived *)
  ecn_echo : bool;
  xcp_feedback : float option;  (** router window delta, packets *)
  in_flight : int;  (** outstanding segments after this ACK *)
  in_recovery : bool;  (** sender is in fast-recovery *)
}

type t = {
  name : string;
  ecn_capable : bool;  (** packets ask for ECN marking instead of drops *)
  reset : now:float -> unit;  (** connection ("on" period) start *)
  on_ack : ack_info -> unit;
  on_loss : now:float -> unit;  (** triple-dupACK, once per recovery episode *)
  on_timeout : now:float -> unit;
  window : unit -> float;  (** congestion window, packets *)
  intersend : unit -> float;
      (** minimum seconds between transmissions; [0.] = unpaced *)
  stamp : Remy_sim.Packet.table -> int -> unit;
      (** write a congestion header into an outgoing packet's columns
          (XCP senders only) *)
}

type factory = unit -> t
(** Fresh algorithm state for one flow. *)

val no_stamp : Remy_sim.Packet.table -> int -> unit
(** Writes nothing: the default for end-to-end schemes. *)

val rtt_of : ack_info -> float option
(** Convenience accessor for the optional RTT sample. *)
