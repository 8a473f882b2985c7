(** Generic replicated experiment runner.

    An experiment fixes a bottleneck (service model + buffer), a sender
    population (count, per-flow RTTs, workload) and a horizon, then runs
    each scheme over [replications] seeds, pooling one (queueing delay,
    throughput) point per sender per run — the points behind the
    paper's throughput-delay ellipse plots and median tables. *)

type t = {
  service : Remy_cc.Dumbbell.service;
  capacity : int;  (** bottleneck buffer, packets *)
  n : int;  (** senders *)
  rtts : float array;
      (** per-flow two-way propagation delay, seconds; length [n] or 1
          (broadcast) *)
  workload : Remy_sim.Workload.t;
  start : [ `Immediate | `Off_draw ];
  duration : float;
  replications : int;
  base_seed : int;
}

val make :
  ?capacity:int ->
  ?rtts:float array ->
  ?replications:int ->
  ?base_seed:int ->
  ?start:[ `Immediate | `Off_draw ] ->
  service:Remy_cc.Dumbbell.service ->
  n:int ->
  rtt:float ->
  workload:Remy_sim.Workload.t ->
  duration:float ->
  unit ->
  t
(** Defaults: capacity 1000, 16 replications, base seed 7000, all flows
    at [rtt], senders start with an off-time draw (use [`Immediate] for
    saturating workloads). *)

type point = { tput_mbps : float; qdelay_ms : float }

type summary = {
  scheme : string;
  points : point array;  (** one per scored sender per replication *)
  median_tput : float;
  median_qdelay : float;
  ellipse : Remy_util.Ellipse.t option;  (** [None] with fewer than 2 points *)
  mean_tput : float;
  mean_rtt_ms : float;  (** mean queueing delay + propagation RTT *)
  per_flow_tput : float array array;
      (** [replications] rows of per-flow throughput (RTT-fairness plots) *)
}

val run_scheme :
  ?tracer:Remy_obs.Trace.t ->
  ?probe_interval:float ->
  ?faults:Remy_faults.Spec.t ->
  t ->
  Schemes.t ->
  summary
(** Replication [i] uses seed [base_seed + i]; senders with zero on-time
    are excluded, like the paper's "active during intervals" accounting.
    [tracer]/[probe_interval] apply to replication 0 only (one
    representative trace per scheme); they never affect results.
    [faults] installs the same fault schedule in every replication
    (fault draws are seeded per replication from the run seed, so each
    replication sees different drop/reorder realizations of the same
    schedule). *)

val replicate :
  ?tracer:Remy_obs.Trace.t ->
  ?probe_interval:float ->
  ?sender_factory:(unit -> Remy_cc.Sender_backend.factory) ->
  ?faults:Remy_faults.Spec.t ->
  scheme:string ->
  replications:int ->
  base_seed:int ->
  (seed:int -> Remy_cc.Topology.config) ->
  summary
(** The replication loop behind {!run_scheme} and
    [Topologies.run_scheme]: replication [i] simulates the network
    [config_of ~seed:(base_seed + i)] with {!Remy_cc.Topology.run} (and
    a fresh backend from [sender_factory], when given), and pools one
    point per sender that went on and delivered; [mean_rtt_ms] adds
    each sender's two-way propagation
    ({!Remy_cc.Topology.flow_rtts}). *)

val run_all : t -> Schemes.t list -> summary list

val pp_summary_row : Format.formatter -> summary -> unit
(** One aligned text row: scheme, median throughput, median delay,
    ellipse axes. *)
