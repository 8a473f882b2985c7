(** FIFO of packet handles, each with the time it was queued.

    A growable ring of ints beside a float column, so queueing a packet
    is two array stores and dequeueing allocates nothing.  The queue
    disciplines keep their packets here; CoDel reads the queued-at time
    to measure sojourn. *)

type t

val create : unit -> t
(** Empty; the ring is allocated on the first {!push}. *)

val push : t -> int -> at:float -> unit

val pop : t -> int
(** The oldest handle, or {!Packet.none} when empty. *)

val head_at : t -> float
(** The queued-at time of the handle the next {!pop} returns.  Only
    meaningful when the queue is non-empty. *)

val length : t -> int
