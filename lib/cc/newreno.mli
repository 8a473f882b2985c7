(** TCP NewReno congestion control (RFC 5681 / RFC 6582 window rules).

    Slow start below ssthresh, additive increase of one segment per RTT
    above it, window halving on triple-dupACK loss, collapse to one
    segment on timeout.  Fast-retransmit/fast-recovery mechanics live in
    the shared {!Senders}; this module only sets the window. *)

val make : ?initial_window:float -> unit -> Cc.t

val factory : ?initial_window:float -> unit -> Cc.factory
