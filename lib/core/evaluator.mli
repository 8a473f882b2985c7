(** One evaluation step of Remy's design loop (Section 4.3): simulate a
    RemyCC on a set of network specimens and total the objective.

    Every specimen is a dumbbell (Fig. 2), or the named topology of
    {!params}, whose senders all run the same rule table — the
    superrational setting of Section 4 — over an unlimited
    (design-time) queue.  All candidate actions are scored on
    the same specimens with the same seeds, so score differences come
    only from the actions.

    One engine, two executors.  This module alone knows how a design
    round becomes {!task}s and how their {!outcome}s are reduced:
    {!run_task} is the one pure unit of work, and {!backend} builds the
    task arrays, merges tallies and reduces scores in task order.  An
    executor only maps [run_task] over a task array: {!on_pool} on the
    in-process {!Par.Pool}, and the distributed coordinator
    ([Remy_dist.Coordinator.backend]) on worker processes.  Results are
    therefore bit-identical whichever executor ran a task.

    A baseline records, per specimen, which rules the run consulted and
    what each sender scored; a later candidate round that overrides rule
    [r] then skips every specimen whose baseline never consulted [r] —
    the rule's action cannot influence a simulation that never reads
    it, so the cached scores are bit-identical to what a re-run would
    produce. *)

type result = {
  mean_score : float;
      (** mean over specimens of the mean per-sender objective *)
  sender_scores : float list;  (** every scored sender, for diagnostics *)
}

type spec_cache = {
  spec : Net_model.specimen;
  scores : float list;  (** per-sender objective scores of the baseline run *)
  touched : bool array;
      (** indexed by rule id ({!Rule_tree.capacity} slots): did the
          baseline run consult this rule? *)
}
(** Per-specimen baseline evidence for incremental candidate scoring.
    Valid for candidate evaluation of any rule id while the tree's
    structure is unchanged ([set_action] on the overridden rule does not
    invalidate it: overridden evaluations never read that action, and
    untouched specimens never read the rule at all). *)

(** {2 Tasks} *)

type params = {
  objective : Objective.t;
  queue_capacity : int;
  duration : float;  (** seconds simulated per specimen *)
  topology : string option;
      (** multi-bottleneck topology name ({!Net_model.t.topology}),
          [None] = dumbbell *)
}
(** Everything a task needs besides the tree and the specimen; fixed for
    a whole training run. *)

type task =
  | Baseline of { spec : Net_model.specimen }
      (** simulate the tree; return scores + the fired-rule tally *)
  | Candidate of { rule : int; action : Action.t; spec : Net_model.specimen }
      (** simulate with [rule]'s action overridden *)

type outcome =
  | Baseline_result of {
      scores : float list;
      slots : (int * int * Memory.t list) list;
          (** {!Tally.export} of the specimen's private tally *)
    }
  | Candidate_result of { scores : float list }

val run_task : params -> Rule_tree.t -> task -> outcome
(** Simulate one specimen and score every sender that went "on", in
    flow order.  A [Baseline] task tallies into a private tally seeded
    from the specimen seed, so its outcome depends on nothing but the
    arguments.  Senders that were never scheduled "on" are not scored
    (their workload, drawn from the specimen seed, is identical for
    every candidate). *)

(** {2 Executors} *)

type backend = {
  eval_baseline :
    ?tally:Tally.t ->
    Rule_tree.t ->
    Net_model.specimen list ->
    result * spec_cache array;
      (** whole-table evaluation: the result plus the per-specimen
          cache, in specimen order; per-specimen tallies are merged
          into [tally] in specimen order *)
  eval_candidates :
    Rule_tree.t ->
    rule:int ->
    Action.t array ->
    spec_cache array ->
    float array * (int * int);
      (** score every candidate action as an override of [rule] on the
          cached specimens: per-candidate mean scores plus
          [(simulated, skipped)] specimen-simulation counts *)
}
(** The evaluation engine {!Optimizer.design} drives.  Build one with
    {!backend} (or {!on_pool}), which fixes the task enumeration and
    the reduction; wrapping one (to count or time calls) keeps its
    results. *)

val backend :
  incremental:bool ->
  ?sync:(Rule_tree.t -> unit) ->
  (Rule_tree.t -> task array -> outcome array) ->
  backend
(** [backend ~incremental ?sync map] is the engine over the executor
    [map]: [map tree tasks] must return [run_task params tree] of every
    task, in task order, for the executor's fixed [params].

    [eval_baseline] calls [sync tree] (default: nothing) before mapping
    the baseline grid.  An executor that keeps its own copy of the tree
    (a worker process) takes it there: until the next baseline the tree
    changes only in the action of the rule under improvement, which
    every candidate task overrides.

    [eval_candidates] maps the flattened candidates x resim grid (index
    [k] = candidate [k / n_resim] on specimen [resim.(k mod n_resim)],
    see {!resim_indices}) and fills the skipped specimens from the
    cache.  With [incremental = false] every specimen is re-simulated
    (the cache's oracle); the scores are bit-identical either way. *)

val on_pool : Par.Pool.t -> params -> incremental:bool -> backend
(** The in-process executor: {!backend} over [Par.Pool.map pool]. *)

val resim_indices :
  incremental:bool -> rule:int -> spec_cache array -> int array
(** Specimen indices that must be re-simulated when [rule]'s action
    changes: all of them, or (incrementally) only those whose baseline
    consulted [rule]. *)

(** {2 One-shot evaluation} *)

val score :
  ?override:int * Action.t ->
  ?tally:Tally.t ->
  ?topology:string ->
  domains:int ->
  objective:Objective.t ->
  queue_capacity:int ->
  duration:float ->
  Rule_tree.t ->
  Net_model.specimen list ->
  result
(** {!run_task} over every specimen on a {!Par.Pool} of [domains] that
    lives for the call (CLI tools, tests): a [Baseline] task per
    specimen, or, with [override], a [Candidate] task.  When [tally] is
    given, the per-specimen tallies are merged into it in specimen
    order.  Raises [Invalid_argument] when given both [override] and
    [tally]: a candidate task records no tally. *)

val specimen_flow_summaries :
  ?override:int * Action.t ->
  ?tally:Tally.t ->
  ?topology:string ->
  queue_capacity:int ->
  duration:float ->
  Rule_tree.t ->
  Net_model.specimen ->
  Remy_sim.Metrics.flow_summary array
(** Run a single specimen and expose the raw per-flow summaries (tests,
    diagnostics).  The specimen is a {!Remy_cc.Topology.dumbbell} over a
    DropTail queue of [queue_capacity] packets, or, with [topology]
    (from {!Net_model.t.topology}), the named {!Remy_cc.Topology}
    builder; either way every sender runs {!Remycc.make} on the table,
    with a 1 s minimum RTO. *)
