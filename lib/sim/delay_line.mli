(** Constant-delay delivery pipe for packet handles.

    [push] hands the handle to [handler] exactly [delay] seconds later,
    preserving order.  The handles wait in an int ring buffer together
    with the agenda key each one reserved when it was pushed, and only
    the head is in the agenda: the line is one {!Engine} entry, under
    one registered handle, however many packets it carries.  When the
    head fires, the line files the next head under that packet's own
    key, so the firing order is exactly that of scheduling one event per
    packet.  The steady-state cost per packet is three array writes and
    one heap sift, with no allocation and no write barrier.  Used for
    the topologies' fixed propagation delays (link exits, deliveries and
    ACK returns). *)

type t

val create : Engine.t -> delay:float -> (int -> unit) -> t
(** Raises [Invalid_argument] unless [delay >= 0]. *)

val push : t -> int -> unit
(** Deliver the handle to the handler [delay] seconds from now.
    Handles pushed at the same instant are delivered in push order. *)

val length : t -> int
(** Handles currently in flight. *)
