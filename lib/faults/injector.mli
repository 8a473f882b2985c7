(** Applies a {!Spec.link_faults} to one link.

    Two halves: [create] wraps the link's qdisc with a gate applying the
    per-packet axes (Gilbert–Elliott loss, outage-drop, corruption
    marking, duplication, reorder/delay holds) in a fixed draw order;
    [attach] registers the time axes (outages, rate shifts, delay
    shifts) as engine events against the built link.

    Determinism: the injector owns a PRNG stream derived from [seed]
    alone — nothing is split from the flow RNG chain — so installing a
    schedule leaves every other stochastic component untouched, and two
    runs of the same spec and seed produce bit-identical traces on
    either agenda backend. *)

type stats = {
  mutable ge_drops : int;
  mutable outage_drops : int;  (** arrivals discarded by [,drop] outages *)
  mutable reordered : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable outages_started : int;
  mutable rate_shifts_applied : int;
  mutable delay_shifts_applied : int;
}

type t

val create :
  Remy_sim.Engine.t ->
  ?tracer:Remy_obs.Trace.t ->
  table:Remy_sim.Packet.table ->
  seed:int ->
  Spec.link_faults ->
  inner:Remy_sim.Qdisc.t ->
  Remy_sim.Qdisc.t * t
(** Wrap [inner]; build the link on the returned qdisc, then {!attach}.
    The gate releases the handles it drops (outage and GE losses) to
    [table]; a duplicate is a fresh handle from it. *)

val attach : t -> Remy_sim.Link.t -> unit
(** Install the outage / rate-shift / delay-shift schedule.  Must run
    before the engine does (events are registered at absolute times). *)

val maybe :
  Remy_sim.Engine.t ->
  ?tracer:Remy_obs.Trace.t ->
  table:Remy_sim.Packet.table ->
  seed:int ->
  Spec.link_faults ->
  inner:Remy_sim.Qdisc.t ->
  Remy_sim.Qdisc.t * t option
(** [create], except an empty spec returns [inner] untouched — the
    zero-cost-when-off path. *)

val stats : t -> stats

val held : t -> int
(** Packets currently in a reorder or delay hold, on their way into the
    inner qdisc. *)
