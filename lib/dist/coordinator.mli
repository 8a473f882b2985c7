(** The stateful side of distributed training: owns the rule tree,
    shards evaluation grids across worker processes, and returns their
    outcomes in task order.

    Determinism argument, in full: the coordinator keeps every piece of
    trajectory-relevant state (tree, PRNG, counters) exactly where the
    single-process optimizer keeps it, and it is only an executor of
    {!Remy.Evaluator.backend}: workers compute the pure
    {!Remy.Evaluator.run_task} the in-process pool maps, outcomes are
    buffered into a slot array by task index, and {!Remy.Evaluator}
    builds the task grids and reduces them only after the whole grid
    completes — so neither worker count, nor scheduling, nor worker loss
    (a reissued task recomputes the same pure function) can change a
    single bit of the outcome.

    Failure model: a worker that EOFs, resets, fails a write, or stays
    silent past the timeout is declared lost; its in-flight task
    indices are requeued at the front of the pending queue and reissued
    to surviving workers.  Corrupt frames are not survivable — they
    mean the transport or a peer is lying, and the run aborts with the
    frame diagnostic ({!Dist_error}); so does a result whose kind does
    not match its task's, naming the worker.  Losing the last worker
    likewise aborts; the round-boundary checkpoint on disk remains the
    resume point, exactly as for {!Remy.Par} pool failures. *)

type worker_spec =
  | Connect of string  (** connect to a [remy_worker] at ["host:port"] *)
  | Spawn of string list
      (** exec [argv] as a worker child serving the protocol on stdin
          (a socketpair end).  Goes through posix_spawn, so it works
          whether or not this process has created domains. *)

val specs_of_string : string -> (worker_spec list, string) result
(** Parse a [--workers] argument: a bare integer [N] means [N] local
    workers, each a [Spawn] that re-execs the running binary with
    {!Worker.child_arg} (so that binary must call
    {!Worker.serve_if_child} first thing); otherwise a comma-separated
    list of [host:port] endpoints. *)

type event = Remy_obs.Telemetry.worker_event =
  | Worker_joined of { worker : int; addr : string; pid : int }
  | Worker_lost of { worker : int; addr : string; reason : string; requeued : int }
  | Task_reissued of { index : int; from_worker : int; to_worker : int }

exception Dist_error of string
(** Unrecoverable distribution failure (handshake rejection, corrupt
    frame, all workers lost).  The message names the worker and cause. *)

type t

val create :
  ?on_event:(event -> unit) ->
  ?heartbeat_s:float ->
  ?timeout_s:float ->
  ?connect_retry_s:float ->
  ?chaos_kill_after:int ->
  params:Wire.eval_params ->
  config_hash:string ->
  workers:worker_spec list ->
  unit ->
  t
(** Spawn/connect and handshake every worker (raises {!Dist_error} if
    any handshake fails).  [Connect] endpoints are retried for
    [connect_retry_s] (default 10 s) to absorb worker startup races.  A
    worker with tasks in flight is pinged after [heartbeat_s] (default
    10 s) of silence and declared lost after [timeout_s] (default
    120 s).

    [chaos_kill_after n] SIGKILLs a spawned worker right after the
    [n]-th task dispatch (only while another worker survives) — the CI
    hook that proves the reissue path preserves bit-identity. *)

val backend : t -> incremental:bool -> Remy.Optimizer.eval_backend
(** [Remy.Evaluator.backend ~incremental] with the workers as its
    executor: each baseline first syncs the tree to them
    (generation-tagged, checkpoint-grade serialization), and every task
    grid is sharded across them. *)

val live_workers : t -> int
(** Workers currently connected and healthy. *)

val shutdown : t -> unit
(** Send [Shutdown] to every live worker, close sockets, reap spawned
    children.  Idempotent. *)
