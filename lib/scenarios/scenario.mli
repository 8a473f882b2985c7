(** The replicated experiment runner, and the only replication loop.

    An experiment fixes a network, a sender population (count,
    workload, start) and a horizon, then runs a population of schemes
    over [replications] seeds, pooling one (queueing delay, throughput)
    point per sender per run — the points behind the paper's
    throughput-delay ellipse plots and median tables.  Most experiments
    run one scheme on every flow ({!run_scheme}); Section 5.6's mixed
    pairs give each flow its own ({!run_population}). *)

type network =
  | Dumbbell of {
      service : Remy_cc.Topology.service;
      rtts : float array;
          (** per-flow two-way propagation delay, seconds; length [n] *)
      loss : float;
          (** i.i.d. non-congestive loss rate in front of the scheme's
              queue ({!Remy_cc.Topology.With_loss}); [0.] = no loss
              stage *)
    }
      (** The paper's Fig. 2 dumbbell ({!Remy_cc.Topology.dumbbell}),
          queued by the population's pairing ({!Schemes.qdisc_spec}). *)
  | Topology of {
      name : string;  (** a name from {!Remy_cc.Topology.names} *)
      link_mbps : float;  (** bottleneck-tier rate *)
      rtt : float;  (** total two-way propagation, seconds *)
    }
      (** A named multi-bottleneck {!Remy_cc.Topology} builder, with
          per-link DropTail buffers in place of the scheme's qdisc
          pairing. *)

type t = {
  network : network;
  capacity : int;  (** buffer per queue, packets *)
  n : int;  (** senders *)
  workload : Remy_sim.Workload.t;
  start : [ `Immediate | `Off_draw ];
  duration : float;
  replications : int;
  base_seed : int;
}

val make :
  ?capacity:int ->
  ?rtts:float array ->
  ?loss:float ->
  ?replications:int ->
  ?base_seed:int ->
  ?start:[ `Immediate | `Off_draw ] ->
  service:Remy_cc.Topology.service ->
  n:int ->
  rtt:float ->
  workload:Remy_sim.Workload.t ->
  duration:float ->
  unit ->
  t
(** A dumbbell experiment.  Defaults: capacity 1000, no loss, 16
    replications, base seed 7000, all flows at [rtt], senders start
    with an off-time draw (use [`Immediate] for saturating workloads).
    Raises [Invalid_argument] when [n < 0], when [rtts] does not have
    length [n], when [loss] is outside [\[0, 1)] (NaN included), or
    when [replications < 1].  The network itself (rates, delays, queue
    capacities, workloads, a sender count of 0, duration) is checked by
    {!Remy_cc.Topology.run}, which raises [Invalid_argument] from
    {!run_population}. *)

val topology :
  ?capacity:int ->
  ?replications:int ->
  ?base_seed:int ->
  ?start:[ `Immediate | `Off_draw ] ->
  name:string ->
  n:int ->
  link_mbps:float ->
  rtt:float ->
  workload:Remy_sim.Workload.t ->
  duration:float ->
  unit ->
  t
(** A named-topology experiment, with the defaults of {!make}.  Raises
    [Invalid_argument], listing every {!Remy_cc.Topology.names} entry,
    on an unknown [name], and on [n < 0] or [replications < 1]. *)

type point = { tput_mbps : float; qdelay_ms : float }

type summary = {
  scheme : string;
  points : point array;  (** one per scored sender per replication *)
  median_tput : float;
  median_qdelay : float;
  ellipse : Remy_util.Ellipse.t option;  (** [None] with fewer than 2 points *)
  mean_tput : float;
  mean_rtt_ms : float;  (** mean queueing delay + propagation RTT *)
  flows : Remy_sim.Metrics.flow_summary array array;
      (** every flow's summary, scored or not: one row per replication
          (RTT-fairness shares, custom accounting) *)
}

val run_population :
  ?tracer:Remy_obs.Trace.t ->
  ?probe_interval:float ->
  ?faults:Remy_faults.Spec.t ->
  t ->
  Schemes.t array ->
  summary
(** [run_population t population]: flow [i] runs [population.(i)]'s
    [factory], on the dumbbell and the named topologies alike.
    Replication [i] simulates the network with seed [base_seed + i] on
    {!Remy_cc.Topology.run}.  Points come from senders that went on and
    delivered, whatever their scheme, like the paper's "active during
    intervals" accounting; [mean_rtt_ms] adds each one's two-way
    propagation ({!Remy_cc.Topology.flow_rtts}).  A caller that scores
    the schemes apart reads [flows].  [scheme] joins the population's
    distinct names with [" + "].  [tracer]/[probe_interval] apply to
    replication 0 only (one representative trace per run); they never
    affect results.  [faults] installs the same fault schedule in every
    replication (fault draws are seeded per replication from the run
    seed, so each replication sees different drop/reorder realizations
    of the same schedule).  Raises [Invalid_argument] when the
    population does not have length [n], or when its schemes disagree
    on the qdisc pairing (every flow crosses the same queues). *)

val run_scheme :
  ?tracer:Remy_obs.Trace.t ->
  ?probe_interval:float ->
  ?faults:Remy_faults.Spec.t ->
  t ->
  Schemes.t ->
  summary
(** The uniform population: every flow runs the scheme. *)

val pp_summary_row : Format.formatter -> summary -> unit
(** One aligned text row: scheme, median throughput, median delay,
    ellipse axes. *)
