(** Process-wide hot-path counters.

    Cheap visibility into the simulator inner loop: how many agenda
    events fired, acks crossed the congestion-control boundary, rule
    lookups ran, and how the packet tables behaved.  Counters are atomics
    so worker domains may bump them concurrently; hot loops accumulate
    locally and {!add} once per run. *)

val events_run : int Atomic.t
val acks_processed : int Atomic.t
val lookups : int Atomic.t

val index_builds : int Atomic.t
(** Always 0: nothing builds a rule-table index any more.  Kept, with its
    {!snapshot} field, only because the repository benchmark (bench/e2e)
    still reads it; it goes away with the next change to that benchmark. *)

val pool_hits : int Atomic.t
(** Packet acquires served without growing the run's packet table. *)

val pool_misses : int Atomic.t
(** Packet acquires that grew (doubled) the run's packet table. *)

val add : int Atomic.t -> int -> unit
(** [add c n] adds [n] (no-op when [n = 0]). *)

val incr : int Atomic.t -> unit

type snapshot = {
  events_run : int;
  acks_processed : int;
  lookups : int;
  index_builds : int;
  pool_hits : int;
  pool_misses : int;
}

val snapshot : unit -> snapshot
val reset : unit -> unit

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] — fieldwise subtraction, attributing counters to
    the work between the two snapshots without a process-wide reset. *)

val to_record : ?prefix:string -> snapshot -> Record.t
(** Flat fields [<prefix>events_run] .. [<prefix>pool_misses] (default
    prefix ["c_"]) — the block run manifests and bench sections embed. *)

val of_record : ?prefix:string -> Record.t -> snapshot option
(** Inverse of {!to_record}; [None] if any field is missing. *)
