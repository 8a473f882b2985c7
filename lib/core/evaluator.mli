(** One evaluation step of Remy's design loop (Section 4.3): simulate a
    RemyCC on a set of network specimens and total the objective.

    Every specimen is a dumbbell (Fig. 2) whose senders all run the same
    rule table — the superrational setting of Section 4 — over an
    unlimited (design-time) queue.  All candidate actions are scored on
    the same specimens with the same seeds, so score differences come
    only from the actions.

    Two evaluation paths:

    - {!score}: one-shot, on a {!Par.Pool} that lives for the call (CLI
      tools, tests).
    - {!baseline} + {!candidate_scores}: the optimizer's hot path over a
      persistent {!Par.Pool}.  [baseline] records, per specimen, which
      rules the run consulted and what each sender scored; a later
      candidate evaluation that overrides rule [r] then skips every
      specimen whose baseline never consulted [r] — the rule's action
      cannot influence a simulation that never reads it, so the cached
      scores are bit-identical to what a re-run would produce. *)

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
(** Specimens are simulated in parallel across [domains].  When [tally]
    is given, per-specimen tallies are merged into it after the runs.
    Senders that were never scheduled "on" are excluded from scoring
    (their workload, drawn from the specimen seed, is identical for
    every candidate). *)

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
    diagnostics).  The specimen is a {!Remy_cc.Topology.dumbbell}, or,
    with [topology] (from {!Net_model.t.topology}), the named
    {!Remy_cc.Topology} builder; either way its senders are one SoA
    {!Fleet}. *)

val specimen_scores :
  ?override:int * Action.t ->
  ?tally:Tally.t ->
  ?topology:string ->
  objective:Objective.t ->
  queue_capacity:int ->
  duration:float ->
  Rule_tree.t ->
  Net_model.specimen ->
  float list
(** Simulate one specimen and score every sender that went "on" —
    the single-task unit both the in-process pool and distributed
    workers execute.  Scores are in flow order, so two executors of the
    same task produce the same list. *)

val result_of_spec_scores : float list array -> result
(** Reduce per-specimen sender-score lists (in specimen order) to a run
    result.  Every evaluation path — one-shot, pooled, distributed —
    funnels through this, so the arithmetic (and the bits) cannot depend
    on who ran the simulations. *)

val resim_indices :
  incremental:bool -> rule:int -> spec_cache array -> int array
(** Specimen indices that must be re-simulated when [rule]'s action
    changes: all of them, or (incrementally) only those whose baseline
    consulted [rule]. *)

val candidate_grid :
  candidates:'a array -> resim:int array -> (int * int) array
(** The flattened candidates x resim enumeration
    [k -> (k / n_resim, resim.(k mod n_resim))] every executor agrees
    on: index [k] names the same (candidate, specimen) pair everywhere. *)

val reduce_candidates :
  candidates:Action.t array ->
  cache:spec_cache array ->
  resim:int array ->
  fresh:float list array ->
  float array * (int * int)
(** Combine fresh simulation results (the flattened candidates x resim
    grid, [fresh.(ci * n_resim + j)] = candidate [ci] on specimen
    [resim.(j)]) with cached scores for skipped specimens.  Returns
    per-candidate mean scores plus [(simulated, skipped)] counts —
    the deterministic reduction shared by {!candidate_scores} and the
    distributed coordinator. *)

val baseline :
  pool:Par.Pool.t ->
  ?tally:Tally.t ->
  ?topology:string ->
  objective:Objective.t ->
  queue_capacity:int ->
  duration:float ->
  Rule_tree.t ->
  Net_model.specimen list ->
  result * spec_cache array
(** Whole-table evaluation on [pool], additionally returning the
    per-specimen cache (in specimen order).  Scores are identical to
    {!score} on the same inputs. *)

val candidate_scores :
  pool:Par.Pool.t ->
  incremental:bool ->
  ?topology:string ->
  objective:Objective.t ->
  queue_capacity:int ->
  duration:float ->
  Rule_tree.t ->
  rule:int ->
  Action.t array ->
  spec_cache array ->
  float array * (int * int)
(** [candidate_scores ~pool ~incremental ... ~rule candidates cache]
    scores every candidate action as an [~override:(rule, candidate)]
    evaluation over the cached specimens, submitting the whole candidate
    x specimen grid to the pool as one flat task array.  When
    [incremental], specimens whose baseline never touched [rule] reuse
    their cached scores instead of re-simulating; results are
    bit-identical either way.  Returns per-candidate mean scores plus
    [(simulated, skipped)] specimen-simulation counts. *)
