(** Structured optimizer telemetry: one record per design epoch.

    Replaces the optimizer's free-form progress strings with data a
    plotting script can consume — training curves (score vs epoch or
    wall time), rule-table growth, and parallel-evaluation utilization
    across runs.  Counters ([evaluations], [improvements],
    [subdivisions], [par_*]) are cumulative since the start of the run,
    so the final record matches the optimizer's report. *)

type epoch = {
  epoch : int;  (** global epoch just completed, 0-based *)
  live_rules : int;  (** rules in the tree at epoch end *)
  most_used_rule : int option;
      (** the rule the tally ranked first at the epoch's start, i.e. the
          first rule this epoch improved; [None] if no rule fired *)
  evaluations : int;  (** cumulative candidate evaluations *)
  improvements : int;  (** cumulative actions replaced *)
  subdivisions : int;  (** cumulative rule splits *)
  score : float;  (** last whole-table score observed *)
  wall_s : float;  (** monotonic seconds since the run started *)
  domains : int;  (** configured parallelism *)
  par_tasks : int;
      (** cumulative {!Par}-executed tasks, transient maps + pool
          (process-wide) *)
  par_spawns : int;  (** cumulative helper domains spawned (process-wide) *)
  par_jobs : int;  (** cumulative pool job submissions (process-wide) *)
  par_helper_tasks : int;
      (** pool tasks claimed by helper domains rather than the submitter
          — divide by pool tasks for utilization (process-wide) *)
  spec_sims : int;
      (** cumulative specimen simulations run in candidate rounds *)
  spec_skips : int;
      (** cumulative specimen simulations the incremental cache avoided *)
}

val to_record : epoch -> Record.t
val of_record : Record.t -> epoch option
val write : Sink.t -> epoch -> unit

(** What a distributed training run's coordinator reports about its
    workers ({!Remy_dist.Coordinator.event} is this type). *)
type worker_event =
  | Worker_joined of { worker : int; addr : string; pid : int }
      (** a distributed worker completed the handshake *)
  | Worker_lost of { worker : int; addr : string; reason : string; requeued : int }
      (** a distributed worker died or timed out; [requeued] of its
          in-flight tasks went back on the queue *)
  | Task_reissued of { index : int; from_worker : int; to_worker : int }
      (** a requeued task was dispatched to a surviving worker *)

(** Robustness events emitted by crash-safe training runs into the same
    stream as the epoch records.  Each carries an ["event"] string field
    as discriminator (epoch records have none), so mixed JSONL files
    stay unambiguous: filter on the presence/value of ["event"].  The
    optimizer reports the first three ({!Remy.Optimizer.event}'s
    [Robustness]), [remy_train --verify] the fourth, and the distributed
    coordinator the worker events. *)
type robustness =
  | Checkpoint_written of {
      epoch : int;
      rounds : int;
      duration_s : float;  (** time spent serializing + fsyncing *)
      path : string;
    }  (** a snapshot hit the disk (atomically) *)
  | Resumed_from of {
      epoch : int;
      rounds : int;
      elapsed_s : float;  (** wall time the resumed run had already spent *)
      path : string;
    }  (** the run restarted from a snapshot instead of from scratch *)
  | Worker_retry of { task : int; attempt : int; error : string }
      (** a pool task raised and was re-run; reported at the next round
          boundary, from the main domain *)
  | Table_verified of {
      rounds : int;  (** cumulative improvement rounds at the check *)
      rules : int;  (** live rules analyzed *)
      sound : bool;  (** partition proven and every action in bounds *)
      problems : int;  (** flaws found (0 when [sound]) *)
      window_hi : float;  (** proven bound on every reachable cwnd *)
    }
      (** the static analyzer ran over the training table
          ([remy_train --verify]'s post-round check) *)
  | Worker of worker_event

val robustness_to_record : robustness -> Record.t
val robustness_of_record : Record.t -> robustness option
(** [None] for records without a recognized ["event"] field — epoch
    records in the same stream decode as [None] here, and vice versa. *)

val write_robustness : Sink.t -> robustness -> unit

val pp_robustness : Format.formatter -> robustness -> unit
(** The event as one line of console narration.  [Table_verified] prints
    only its name: remy_train's [--verify] check writes that event to
    the telemetry without narrating it (an unsound table is reported on
    stderr instead). *)
