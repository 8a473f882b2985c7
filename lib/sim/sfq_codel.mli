(** Stochastic fair queueing with per-queue CoDel (sfqCoDel).

    The paper's strongest in-network baseline (Section 5.1): flows are
    hashed into bins, each bin runs its own CoDel instance, and bins are
    served by deficit round-robin with a one-MTU quantum.  Bins with
    fresh traffic are served first (the new/old flow lists of
    fq_codel/sfqcodel), which gives short flows low latency.  When the
    shared buffer is full, the arriving packet is dropped from the
    currently longest bin. *)

val create :
  ?tracer:Remy_obs.Trace.t ->
  ?bins:int ->
  ?quantum:int ->
  ?target:float ->
  ?interval:float ->
  table:Packet.table ->
  capacity:int ->
  unit ->
  Qdisc.t
(** Defaults: 1024 bins, quantum 1500 bytes, CoDel target 5 ms /
    interval 100 ms; [capacity] is the shared packet limit.  [tracer]
    (default off) records enqueue/dequeue events, overflow drops from
    the fattest bin, and per-bin CoDel head drops ([qlen] fields report
    the shared queue's total). *)
