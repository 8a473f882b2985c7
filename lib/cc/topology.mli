(** The simulation runner.

    A network is a set of links and per-flow routes: each link is a
    queue discipline + transmission server (constant rate, or a
    replayed cellular trace) + exit propagation delay.  Packets are
    routed hop-by-hop; after its last link a packet crosses that link's
    delay plus its flow's access delay to a structure-of-arrays
    {!Receiver_bank}, and ACKs return over uncongested per-flow reverse
    paths whose delay equals the flow's total forward propagation
    (symmetric paths).  The same runner serves both of the paper's
    roles: Remy's design-time simulator (unlimited queue, no loss) and
    the ns-2-style evaluation (finite DropTail/sfqCoDel/RED/XCP
    bottlenecks).  The paper's dumbbell (Fig. 2) is the one-link
    network built by {!dumbbell}. *)

type link_spec = {
  service : Dumbbell.service;
  delay_s : float;  (** one-way propagation at link exit, seconds *)
  qdisc : Dumbbell.qdisc_spec;
}

type flow_spec = {
  cc : Cc.factory;
  route : int array;
      (** link indices from the sender outward; non-empty, loop-free *)
  access_delay_s : float;
      (** one-way propagation from the route's last link to the
          receiver, seconds *)
  workload : Remy_sim.Workload.t;
  start : [ `Immediate | `Off_draw ];
}

type config = {
  links : link_spec array;
  flows : flow_spec array;
  duration : float;  (** simulated seconds *)
  seed : int;
  min_rto : float;
}

type result = {
  flows : Remy_sim.Metrics.flow_summary array;
  drops : int;  (** across all links, all causes *)
  delivered : int;
      (** packets through the bottleneck (the minimum-rate link, first
          on ties) *)
  received : int;  (** fresh data packets accepted by receivers *)
  bottleneck_utilization : float;
      (** delivered bytes / (bottleneck rate x duration); trace links
          use their long-run mean rate *)
  in_flight : int;
      (** packets the run left behind: queued, held by a fault injector
          or a delayed ACK, on a propagation line, or in transmission.
          Packet conservation: it equals the run's acquired minus
          released handles. *)
}

val flow_rtts : config -> float array
(** Each flow's two-way propagation delay, seconds. *)

val run :
  ?tracer:Remy_obs.Trace.t ->
  ?probe_interval:float ->
  ?delivery_hook:(flow:int -> now:float -> seq:int -> unit) ->
  ?delack:int * float ->
  ?sender_factory:Sender_backend.factory ->
  ?faults:Remy_faults.Spec.t ->
  config ->
  result
(** Build the network, run for [duration] virtual seconds, return
    per-flow summaries.  Raises [Invalid_argument], naming the link or
    flow, on an empty network, a bad route, a non-finite or
    non-positive link rate, or a non-finite or negative delay.
    [tracer] (default off) receives every packet-level event from the
    queues, the links and the senders; with [probe_interval] it also
    gets periodic [qsample] rows per link (queue names suffixed
    ["#<link>"] when there is more than one link) and [fsample] rows
    per flow (cwnd, pacing gap, srtt) on the grid
    {!Remy_obs.Probe.times}.  Tracing only observes: results are
    bit-identical with the tracer on, off, or absent.
    [delivery_hook] observes every fresh data delivery (Fig. 6's
    sequence plot).  [delack] = [(every, timeout)] switches receivers
    from per-packet ACKs to RFC 1122-style delayed ACKs.
    [sender_factory] overrides the default per-record TCP sender backend
    (e.g. with the SoA RemyCC fleet); results are bit-identical across
    conforming backends.  [faults] (default {!Remy_faults.Spec.empty})
    installs a fault schedule per link; with the empty spec the wiring
    is skipped entirely and the run is bit-identical to one without the
    fault layer.
    Packets are handles into this domain's {!Remy_sim.Packet.table},
    reset on entry, so back-to-back runs on one domain allocate no
    packets; a run nested in another (from [delivery_hook]) gets a
    private table. *)

(** {1 Canonical topologies} *)

val dumbbell : Dumbbell.config -> config
(** The paper's dumbbell: one bottleneck link with no exit delay, each
    flow reaching its receiver after half its RTT ([access_delay_s =
    rtt /. 2.]). *)

val parking_lot :
  ?hops:int ->
  ?link_mbps:float ->
  ?rtt_s:float ->
  ?queue_capacity:int ->
  ?long_flows:int ->
  n:int ->
  cc:Cc.factory ->
  workload:Remy_sim.Workload.t ->
  start:[ `Immediate | `Off_draw ] ->
  duration:float ->
  seed:int ->
  unit ->
  config
(** Chain of [hops] (default 3) equal bottlenecks.  The first
    [long_flows] (default half) flows traverse the whole chain; the
    rest are single-hop cross traffic, assigned round-robin.  [rtt_s]
    is the long flows' two-way propagation (default 0.15). *)

val fat_tree_pod :
  ?edges:int ->
  ?edge_mbps:float ->
  ?oversub:float ->
  ?rtt_s:float ->
  ?queue_capacity:int ->
  n:int ->
  cc:Cc.factory ->
  workload:Remy_sim.Workload.t ->
  start:[ `Immediate | `Off_draw ] ->
  duration:float ->
  seed:int ->
  unit ->
  config
(** One fat-tree pod: [edges] (default 4) edge links feed a shared
    aggregation uplink oversubscribed [oversub]:1 (default 4), then a
    core link; flows are spread round-robin over the edges. *)

val incast :
  ?bottleneck_mbps:float ->
  ?access_mbps:float ->
  ?rtt_s:float ->
  ?queue_capacity:int ->
  ?burst_kb:float ->
  ?period_s:float ->
  ?workload:Remy_sim.Workload.t ->
  ?start:[ `Immediate | `Off_draw ] ->
  n:int ->
  cc:Cc.factory ->
  duration:float ->
  seed:int ->
  unit ->
  config
(** Many-to-one datacenter incast: [n] senders share one bottleneck,
    each firing a synchronized [burst_kb]-kilobyte burst every
    [period_s] seconds ({!Remy_sim.Workload.incast}) unless [workload]
    overrides.  [access_mbps] optionally puts a private access link in
    front of every sender. *)

(** {1 Registry} *)

type builder =
  n:int ->
  cc:Cc.factory ->
  ?workload:Remy_sim.Workload.t ->
  ?start:[ `Immediate | `Off_draw ] ->
  ?link_mbps:float ->
  ?rtt_s:float ->
  ?queue_capacity:int ->
  duration:float ->
  seed:int ->
  unit ->
  config

val builders : (string * builder) list
(** Named canonical topologies: ["parking-lot"], ["fat-tree-pod"],
    ["incast"].  [link_mbps] scales the bottleneck tier; [rtt_s] the
    total two-way propagation. *)

val names : string list
val builder_of_name : string -> builder option
