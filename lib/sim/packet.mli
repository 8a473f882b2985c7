(** Packets and acknowledgments as integer handles.

    One packet is one fixed-size TCP segment (the simulator works in
    whole segments, like Remy's own design-phase simulator).  Sequence
    numbers count segments within one connection ("on" period).  The XCP
    congestion header and the ECN bits ride along for the router-assisted
    baselines.

    A packet is a handle: an index into the columns of a {!table}, a
    structure-of-arrays store with one int or float column per field.
    Queues, delay lines and links hold handles, so moving a packet is an
    int store with no write barrier.  The columns are bigarrays: the GC
    never scans them, and a column's memory pages are touched only as
    far as handles reach, so a grown table costs what its packets use.

    A data packet that reaches its receiver comes back as its own
    acknowledgment: the receiver writes the ACK columns ([cum_ack],
    [received_at], and the feedback echo in [xcp_feedback]) into the
    same handle, and the sender side releases it once the ACK is
    handled.

    Every handle is released exactly once: after its ACK is handled, by
    the receiver when it discards the packet (stale connection,
    superseded delayed ACK), or at the site that drops it (qdisc
    admission and head drops, {!Lossy}, the fault injector, corrupt
    drops at the link).

    Read and write a column through the table's field at each access
    ([tbl.Packet.size.{h}]), never from a column saved earlier: an
    acquire that grows the table replaces every column. *)

val none : int
(** [-1]: no packet (an empty queue's dequeue, an idle link). *)

val default_size : int
(** 1500 bytes: the segment size used throughout the evaluation. *)

(** {1 Flag bits}

    Or-ed into the [flags] column. *)

val retx : int
(** Retransmission (Karn: its ACK gives no RTT sample). *)

val ecn_capable : int

val ecn_marked : int
(** Set by a marking router; an ACK echoes it. *)

val corrupt : int
(** Payload corrupted in flight (fault injection): the link drops the
    packet at service completion, after it consumed capacity. *)

val xcp : int
(** The packet carries an XCP header ([xcp_cwnd], [xcp_rtt],
    [xcp_feedback]). *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type table = private {
  mutable flow : ints;  (** sender index within the experiment *)
  mutable seq : ints;  (** segment number, from 0 per connection *)
  mutable conn : ints;  (** connection ("on" period) counter, guards stale ACKs *)
  mutable size : ints;  (** bytes on the wire *)
  mutable flags : ints;  (** the flag bits above *)
  mutable sent_at : floats;  (** transmission timestamp, echoed by the ACK *)
  mutable xcp_cwnd : floats;  (** sender cwnd, packets *)
  mutable xcp_rtt : floats;  (** sender RTT estimate, seconds *)
  mutable xcp_feedback : floats;
      (** NaN without an XCP header; the header's router-granted window
          delta (packets, [infinity] until a router lowers it); on an ACK,
          the finite feedback echoed to the sender, or NaN for none *)
  mutable cum_ack : ints;  (** ACK: next segment expected in order *)
  mutable received_at : floats;  (** ACK: receiver timestamp *)
  mutable free : ints;  (** released handles, a stack *)
  mutable n_free : int;
  mutable fresh : int;
      (** handles at and above [fresh] were never acquired since the
          last {!reset} *)
  mutable acquired : int;  (** acquires since the last {!reset} *)
  mutable released : int;  (** releases since the last {!reset} *)
  mutable misses : int;  (** acquires that grew the table *)
}

val create : unit -> table
(** A private table, for tests and for a {!with_domain_table} call
    nested inside another. *)

val acquire :
  table -> flow:int -> seq:int -> conn:int -> flags:int -> now:float -> int
(** A handle for a fresh packet of {!default_size} bytes sent at [now],
    with no XCP header ([xcp_feedback] NaN).  Reuses a released handle,
    else the next never-used one; when none is left the table doubles
    (a miss). *)

val release : table -> int -> unit
(** Hand the handle back.  Its columns keep their values until a later
    {!acquire} hands it out again, which the next one does: the free
    list is a stack.  Raises [Invalid_argument] if the handle is not
    live (a double release). *)

val reset : table -> unit
(** Forget every handle: all become free at once, in O(1), and the
    counters restart at zero.  Capacity above 2^16 handles is dropped,
    so a queue-flood run does not pin its memory. *)

val with_domain_table : (table -> 'a) -> 'a
(** [with_domain_table f] runs [f] on this domain's table, reset first,
    so a run's leftover handles cost nothing and steady-state runs grow
    nothing.  A call nested inside another on the same domain (a
    simulation started from a delivery hook) gets a private table
    instead, leaving the outer run's handles alone.  The domain's table
    is released again when [f] returns or raises. *)

val domain_table : unit -> table
(** This domain's table, to inspect the last run's counters. *)
