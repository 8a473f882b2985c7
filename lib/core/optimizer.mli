(** Remy's automated design procedure (Section 4.3).

    Starting from a single rule (m = 1, b = 1, r = 0.01 covering all of
    memory space), the optimizer repeats:

    + set all rules to the current epoch;
    + simulate on freshly drawn network specimens and find the most-used
      rule of this epoch;
    + improve that rule's action greedily: evaluate the Cartesian
      product of geometrically growing increments on the same specimens
      with the same seeds, adopt the best strictly improving candidate,
      and repeat until none improves; then advance the rule's epoch;
    + when the epoch's rules are exhausted, bump the global epoch; every
      [k_subdivide]-th epoch (K = 4 in the paper), split the most-used
      rule at the median memory point that triggered it into eight
      octants.

    Candidate evaluations run in parallel on a persistent domain pool
    ({!Par.Pool}) created once per {!design} run; each improvement round
    submits the whole candidate x specimen grid as one flat task array.
    Specimens whose baseline run never consulted the rule under
    improvement are not re-simulated — their cached scores are reused,
    which is exact: an overridden rule that is never consulted cannot
    influence the simulation.  The procedure is deterministic given
    [seed]; neither the domain count nor the executor ({!Par.Pool} or
    distributed workers) affects results, only wall time.

    {2 Crash safety}

    The loop's unit of progress is the {e round}: one tally + one greedy
    improvement of the most-used rule.  All mutable state the future
    depends on (rule tree, PRNG, evaluation counters) is consistent
    exactly at round boundaries, so that is where {!design}:

    - writes checkpoints (when [checkpoint] is given) via the atomic
      {!Checkpoint.save} protocol, every [every_rounds] rounds and
      always at epoch boundaries;
    - honors [stop_requested] — the in-flight round is finished first,
      a final checkpoint is forced, and the report comes back with
      [interrupted = true].

    Resuming from the resulting snapshot ([resume]) continues the run
    {e bit-identically}: the final tree, score and evaluation counts
    equal those of an uninterrupted run.  {!config_fingerprint} guards
    against resuming under a different model/objective/search config. *)

type config = {
  model : Net_model.t;
  objective : Objective.t;
  specimens_per_step : int;  (** >= 16 in the paper *)
  domains : int;
      (** pool size, counting the submitting domain (default: the core
          count) *)
  k_subdivide : int;  (** K; the paper uses 4 *)
  candidate_multipliers : float list;  (** geometric ladder, e.g. [1.;8.;64.] *)
  rounds_per_rule : int;
      (** cap on improvement iterations per rule per visit — bounds the
          greedy walk deterministically (wall-clock budgets cannot) *)
  max_epochs : int;  (** global-epoch budget *)
  max_rules : int;  (** stop subdividing beyond this many live rules *)
  prune_agreeing : bool;
      (** at each subdivision step, first collapse previous splits whose
          improved children still agree ({!Rule_tree.collapse_agreeing}) —
          the Section 4.3 future-work refinement *)
  wall_budget_s : float;  (** stop after this much wall-clock time *)
  seed : int;
  task_retries : int;
      (** re-run a raising pool task up to this many times before the
          run fails (default 1); tasks are pure, so retries absorb
          transient faults without affecting results *)
  stall_timeout_s : float option;
      (** enable {!Par.Pool}'s watchdog: abort (with the last checkpoint
          intact) if no task completes for this long (default off) *)
}

val default_config :
  ?specimens_per_step:int ->
  ?domains:int ->
  ?k_subdivide:int ->
  ?candidate_multipliers:float list ->
  ?rounds_per_rule:int ->
  ?max_epochs:int ->
  ?max_rules:int ->
  ?prune_agreeing:bool ->
  ?wall_budget_s:float ->
  ?seed:int ->
  ?task_retries:int ->
  ?stall_timeout_s:float ->
  model:Net_model.t ->
  objective:Objective.t ->
  unit ->
  config

val config_fingerprint : config -> string
(** Hex hash ({!Checkpoint.hash_hex}) of every config field that can
    influence the search trajectory: model, objective, seed and search
    parameters.  [domains], [task_retries], [stall_timeout_s],
    [max_epochs] and [wall_budget_s] are excluded — they are provably
    result-invariant or extendable budgets — so a resumed run may change
    them freely. *)

type checkpoint_spec = {
  dir : string;  (** where [checkpoint.sexp] lives *)
  every_rounds : int;
      (** write every this-many rounds (epoch boundaries and interrupts
          always write; [<= 0] means only those forced writes) *)
}

type report = {
  tree : Rule_tree.t;
  epochs : int;  (** global epochs completed *)
  rounds : int;  (** improvement rounds completed (tally + greedy visit) *)
  improvements : int;  (** actions replaced *)
  subdivisions : int;
  evaluations : int;  (** candidate evaluations (each = one specimen batch) *)
  spec_sims : int;
      (** specimen simulations actually run during candidate rounds *)
  spec_skips : int;
      (** specimen simulations avoided by the incremental cache *)
  final_score : float;  (** last whole-table score observed *)
  interrupted : bool;
      (** [stop_requested] ended the run early; a final checkpoint was
          written if checkpointing was on *)
}

(** Structured progress events.  [Epoch_done] carries the
    {!Remy_obs.Telemetry.epoch} record for the global epoch that just
    finished — exactly one per completed epoch, so a JSONL file of them
    has [report.epochs] lines.  The other constructors narrate the inner
    loop at the same granularity the old string messages did. *)
type event =
  | Improving of { epoch : int; rule : int; uses : int; score : float }
      (** the tally ranked [rule] first; greedy improvement starts *)
  | Improved of { rule : int; action : Action.t; score : float }
      (** a candidate action strictly improved the score and was adopted *)
  | Subdivided of { rule : int; at : Memory.t; rules_now : int }
  | Pruned of { collapsed : int; rules_now : int }
  | Epoch_done of Remy_obs.Telemetry.epoch
  | Robustness of Remy_obs.Telemetry.robustness
      (** [Checkpoint_written], [Resumed_from] (its [path] is the
          checkpoint file, [""] without [checkpoint]) or [Worker_retry] *)

val pp_event : Format.formatter -> event -> unit
(** Render an event as the one-line status message it replaces. *)

type eval_backend = Evaluator.backend = {
  eval_baseline :
    ?tally:Tally.t ->
    Rule_tree.t ->
    Net_model.specimen list ->
    Evaluator.result * Evaluator.spec_cache array;
  eval_candidates :
    Rule_tree.t ->
    rule:int ->
    Action.t array ->
    Evaluator.spec_cache array ->
    float array * (int * int);
}
(** The evaluation engine {!design} drives.  Build one with
    {!Evaluator.backend} over an executor: {!Evaluator.on_pool} (the
    default, over {!design}'s own pool) or the distributed coordinator.
    The task enumeration and the reduction then live in {!Evaluator}
    alone, so results are bit-identical across executors.  A wrapper
    that counts or times calls may sit in between. *)

val eval_params : config -> Evaluator.params
(** The task parameters of a run under [config]: its objective and its
    model's queue capacity, simulated duration and topology. *)

val design :
  ?backend:eval_backend ->
  ?progress:(event -> unit) ->
  ?checkpoint:checkpoint_spec ->
  ?resume:Checkpoint.snapshot ->
  ?stop_requested:(unit -> bool) ->
  ?on_round:(rounds:int -> Rule_tree.t -> unit) ->
  ?now0:float ->
  config ->
  report
(** Run the search.  [progress] receives structured {!event}s; use
    {!pp_event} to recover the legacy console lines.

    Without [backend], design evaluates on its own pool, through
    [Evaluator.on_pool pool (eval_params config) ~incremental:true].
    With one (distributed training, or a test's full re-simulation
    oracle) no pool is created, so [domains], [task_retries] and
    [stall_timeout_s] are inert and failures surface as the backend's
    own exceptions rather than {!Par.Task_failed}.

    [now0] (a {!Remy_obs.Clock.now_s} reading, default: taken on entry)
    is the monotonic epoch base of the run: telemetry [wall_s] and the
    wall budget are measured from it.  Callers that also stamp a run
    manifest should capture one reading and pass it here so both
    artifacts agree on when the run started.

    When {!Remy_obs.Profiler} is enabled, the run accumulates a phase
    tree: [design] > [baseline]/[round] > [eval] > [sim], plus
    [subdivide] and [checkpoint]; {!Remy_obs.Metrics} likewise gets
    [eval_round_s] and (via the evaluator) [sim_wall_s] samples.
    Instrumentation only observes — results are bit-identical with
    profiling/metrics on or off.

    [on_round] runs on the main domain at every round boundary (the same
    consistent point where checkpoints are taken), with the cumulative
    round count and the live tree — the hook behind
    [remy_train --verify]'s post-round static checks.  It must not
    mutate the tree.

    [checkpoint] turns on crash-safe snapshots (see the module
    preamble); an initial checkpoint is written before the first round
    so a resumable file always exists.  [resume] continues from a loaded
    snapshot — raises [Invalid_argument] if the snapshot's config hash
    does not match this [config] (callers should {!Checkpoint.check_config}
    first for a clean error).  [stop_requested] is polled at round
    boundaries only — returning [true] finishes the in-flight round,
    forces a checkpoint, and returns with [interrupted = true].

    May raise {!Par.Task_failed} (a task kept failing after
    [task_retries]) or {!Par.Stalled} (watchdog; the pool's domains are
    abandoned, not joined).  In both cases the checkpoint on disk is the
    last round-boundary snapshot — it is never overwritten with
    mid-round state. *)
