(** Work-stealing parallel map over OCaml 5 domains.

    Remy's inner loop — evaluating ~100 candidate actions on the same
    specimen networks — is "embarrassingly parallel" (Section 4.3); the
    paper burned CPU-weeks on 48-80-core machines.  One entry point,
    {!Pool}: it keeps the domains alive between batches, so the training
    hot loop (hundreds of thousands of small task grids) pays the spawn
    cost once per [design] run instead of once per candidate round.

    Tasks are claimed off a shared atomic cursor (work stealing), and
    results are deterministic: every task owns its own seeds and writes
    only its own result slot, so scheduling order cannot influence
    results. *)

val recommended_domains : unit -> int
(** The hardware's recommended domain count (at least 1), the default
    pool size: a pool's [domains] counts the submitting domain, which
    runs tasks too. *)

exception Task_failed of { index : int; attempts : int; error : string }
(** A pool task kept failing after its configured retries; [error] is
    the last exception's rendering.  Raised (once per batch) by
    {!Pool.map} when the pool was created with [retries > 0]. *)

exception Stalled of { completed : int; total : int; waited_s : float }
(** The pool's watchdog saw no task complete for the configured timeout
    — a worker domain is wedged (OCaml domains cannot be killed), so the
    batch is abandoned.  The pool is unusable afterwards: do not call
    {!Pool.map} or {!Pool.shutdown} on it again; checkpoint and exit. *)

(** A persistent pool of worker domains.  [create] spawns [domains - 1]
    helpers that block on a condition variable between jobs; each
    {!Pool.map} wakes them, races them (and the caller) over one shared
    cursor, and parks them again.  Not re-entrant: one job at a time per
    pool, submitted from the domain that created it. *)
module Pool : sig
  type t

  val create :
    ?retries:int ->
    ?on_retry:(task:int -> attempt:int -> exn -> unit) ->
    ?stall_timeout_s:float ->
    domains:int ->
    unit ->
    t
  (** Spawn helper domains (parked until work arrives) so that
      [domains] total serve each job — clamped to the hardware's
      recommended domain count.  OCaml 5's minor GC synchronizes all
      running domains, so oversubscribing physical cores only adds
      scheduling barriers; results are unaffected, since tasks are
      deterministic per index.

      [retries] (default 0): a raising task is re-run up to this many
      times before the batch fails; tasks are pure, so retries cannot
      change results, only absorb transient faults.  Each retry invokes
      [on_retry] (from whichever domain ran the task — the callback must
      be thread-safe) and bumps the {!stats} [pool_retries] counter.
      With [retries = 0] the original exception propagates unchanged;
      with [retries > 0] exhausted retries raise {!Task_failed}.

      [stall_timeout_s]: enable the watchdog — if no task completes for
      this long while the submitter is waiting on helpers, raise
      {!Stalled} rather than hang.  Set it well above the longest
      expected single task.  It cannot fire for a task the submitting
      domain itself is running (the submitter cannot watch itself). *)

  val size : t -> int
  (** Total domains that serve a job, including the submitter (after
      the hardware clamp). *)

  val map : t -> ('a -> 'b) -> 'a array -> 'b array
  (** [map t f xs] applies [f] to every element on the pool's domains,
      preserving order.  The caller participates; returns when every
      task has finished.  Any exception raised by [f] is re-raised after
      the batch drains (remaining tasks are skipped), subject to the
      pool's retry policy. *)

  val shutdown : t -> unit
  (** Wake and join every helper.  The pool must not be used after. *)

  val with_pool :
    ?retries:int ->
    ?on_retry:(task:int -> attempt:int -> exn -> unit) ->
    ?stall_timeout_s:float ->
    domains:int ->
    (t -> 'a) ->
    'a
  (** [create], run, then [shutdown] (also on exception). *)
end

type stats = {
  spawns : int;  (** helper domains spawned by pool creation *)
  pool_jobs : int;  (** {!Pool.map} submissions *)
  pool_tasks : int;  (** tasks executed through pools *)
  pool_helper_tasks : int;
      (** pool tasks claimed by helper domains rather than the submitter
          — [pool_helper_tasks / pool_tasks] is pool utilization: 0 when
          helpers never win a task (e.g. a one-core box), approaching
          [(size-1)/size] when work spreads evenly *)
  pool_retries : int;  (** failed task attempts absorbed by retry *)
}
(** Cumulative process-wide counters.  Monotonic; diff two snapshots for
    a span. *)

val stats : unit -> stats
