(** Registry of congestion-control schemes under evaluation (Section 5.1).

    A scheme pairs an endpoint algorithm with the bottleneck queue
    discipline it is evaluated over: the end-to-end schemes and RemyCCs
    run over DropTail, Cubic-over-sfqCoDel over per-flow CoDel queues,
    XCP over XCP routers, and DCTCP over the threshold-marking RED
    gateway. *)

type qdisc_kind = Q_droptail | Q_sfqcodel | Q_dctcp_red | Q_xcp

type t = {
  name : string;  (** label used in printed tables *)
  factory : Remy_cc.Cc.factory;
  qdisc : qdisc_kind;
  tree : Remy.Rule_tree.t option;
      (** the rule table behind a RemyCC scheme, for callers that
          inspect it (rule counts, a usage tally) *)
}

val droptail_capacity : int
(** 1000 packets, the evaluation's default buffer. *)

val dctcp_threshold : int
(** RED marking threshold K (65 packets, per the DCTCP paper). *)

val newreno : t
val vegas : t
val cubic : t
val compound : t
val cubic_sfqcodel : t
val xcp : t
val dctcp : t

val end_to_end : t list
(** NewReno, Vegas, Cubic, Compound. *)

val fig4_baselines : t list
(** The six non-Remy schemes of Figs. 4-9. *)

val remy : ?idle_restart_s:float -> name:string -> Remy.Rule_tree.t -> t
(** Wrap a rule table as a scheme running over DropTail.
    [idle_restart_s] forwards to {!Remy.Remycc.factory}: after an ACK
    gap longer than this, stale memory EWMAs are reset (graceful
    degradation across link outages).  Default off. *)

val qdisc_spec : t -> capacity:int -> Remy_cc.Topology.qdisc_spec
(** The scheme's bottleneck queue, [capacity] packets deep. *)

val by_name : string -> t option
(** Look up a baseline scheme by its printed name. *)
