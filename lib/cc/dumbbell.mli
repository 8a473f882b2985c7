(** The dumbbell of the paper's Fig. 2, and the link vocabulary every
    network shares.

    n senders share one bottleneck (queue discipline + link) toward
    their receivers; ACKs return over an uncongested reverse path.  Each
    flow has its own two-way propagation delay (for the differing-RTT
    experiment of Section 5.4), an on/off workload, and a congestion
    control factory.  A {!config} describes such a network;
    [Topology.run (Topology.dumbbell config)] simulates it.  The queue
    disciplines ({!qdisc_spec}) and service models ({!service}) here are
    the per-link building blocks of every {!Topology}. *)

type qdisc_spec =
  | Droptail of int  (** capacity in packets; the paper's default is 1000 *)
  | Codel of int
  | Sfq_codel of int
  | Dctcp_red of { capacity : int; threshold : int }
  | Xcp of int
      (** capacity in packets; router learns the link rate from the
          service model (trace links use the long-run mean, footnote 6) *)
  | With_loss of float * qdisc_spec
      (** i.i.d. non-congestive loss rate in front of the inner queue *)

type service =
  | Rate_mbps of float
  | Trace of Remy_sim.Cell_trace.t  (** replayed cyclically *)

type flow_spec = {
  cc : Cc.factory;
  rtt : float;  (** two-way propagation delay, seconds *)
  workload : Remy_sim.Workload.t;
  start : [ `Immediate | `Off_draw ];
}

type config = {
  service : service;
  qdisc : qdisc_spec;
  flows : flow_spec array;
  duration : float;  (** simulated seconds *)
  seed : int;
  min_rto : float;
}

val default_min_rto : float
(** 0.2 s — small enough not to stall short LTE outages, large enough to
    avoid spurious timeouts at the design-range RTTs. *)

val service_rate_mbps : service -> float
(** The link rate a service model offers: the constant rate, or a
    trace's long-run mean.  Sizes XCP's capacity estimate and the
    utilization denominator. *)

val qdisc_of_spec :
  Remy_sim.Engine.t ->
  tracer:Remy_obs.Trace.t ->
  table:Remy_sim.Packet.table ->
  rate_mbps:float ->
  seed:int ->
  qdisc_spec ->
  Remy_sim.Qdisc.t
(** Instantiate one queue discipline from its spec, holding handles into
    [table].  [rate_mbps] sizes
    XCP's capacity estimate; [seed] derives the stochastic-loss stream
    of {!With_loss}. *)

val fault_seed : seed:int -> link:int -> int
(** The PRNG seed for link [link]'s fault injector, derived from the run
    seed by a fixed mix (never by splitting the flow RNG chain), so
    installing a fault schedule perturbs no other stochastic stream. *)
