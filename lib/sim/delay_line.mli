(** Constant-delay delivery pipe.

    [push] hands the value to [handler] exactly [delay] seconds later,
    preserving order.  The values wait in a ring buffer together with
    the agenda key each one reserved when it was pushed, and only the
    head is in the agenda: the line is one {!Engine} entry, under one
    registered handle, however many values it carries.  When the head
    fires, the line files the next head under that value's own key, so
    the firing order is exactly that of scheduling one event per value.
    The steady-state cost per value is three array writes and one heap
    sift, with no allocation.  Used for the topologies' fixed
    propagation delays (link exits, deliveries and ACK returns). *)

type 'a t

val create : Engine.t -> delay:float -> filler:'a -> ('a -> unit) -> 'a t
(** [filler] pads the internal ring buffer (never passed to the
    handler).  Raises [Invalid_argument] unless [delay >= 0]. *)

val push : 'a t -> 'a -> unit
(** Deliver the value to the handler [delay] seconds from now.  Values
    pushed at the same instant are delivered in push order. *)

val length : 'a t -> int
(** Values currently in flight. *)
