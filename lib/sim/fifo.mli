(** FIFO of packet handles, each with the time it was queued.

    A growable ring: a handle column beside a queued-at column, both
    bigarrays as in {!Packet.table}.  Queueing a packet is two stores,
    dequeueing allocates nothing, and the GC never scans a column,
    however far a queue flood grows it.
    A queue starts on shared zero-length columns and gets its own at
    its first push, so creating one (sfqCoDel makes 1,024 bins)
    allocates only its record.  The queue disciplines keep their packets
    here; CoDel reads the queued-at time to measure sojourn. *)

type t

val create : unit -> t
(** Empty; its own columns are allocated on the first {!push}. *)

val push : t -> int -> at:float -> unit

val pop : t -> int
(** The oldest handle, or {!Packet.none} when empty. *)

val head_at : t -> float
(** The queued-at time of the handle the next {!pop} returns.  Only
    meaningful when the queue is non-empty. *)

val length : t -> int
