(** The stateless side of distributed training: evaluate whatever
    specimen the coordinator sends, against whatever tree it last
    synced.

    A worker holds no training state — no PRNG, no tally across tasks,
    no notion of rounds.  Each task is {!Remy.Evaluator.run_task}, the
    function the in-process pool maps, so determinism cannot depend on
    which worker ran it; a [Candidate] task's override shadows the one
    rule the optimizer is improving, so the generation-tagged tree stays
    valid for the whole round. *)

exception Protocol_error of string
(** A malformed frame or out-of-order message.  The payload names the
    violation (and, for framing errors, the byte position) — callers
    print it and exit nonzero. *)

val serve : ?expect_config:string -> ?log:(string -> unit) -> Unix.file_descr -> unit
(** Serve one coordinator connection until [Shutdown] or EOF.

    The handshake rejects a [Hello] whose protocol version differs, or —
    when [expect_config] pins a config fingerprint — whose fingerprint
    does not match: a [Reject] naming both fingerprints is sent back and
    {!Protocol_error} is raised, so a worker started for run A can never
    silently contribute bits to run B.  [log] receives one line per
    lifecycle event (handshake, task counts at shutdown). *)

val child_arg : string
(** The internal [argv.(1)] that marks a process as a local worker
    child.  {!Coordinator.specs_of_string} ["N"] re-execs the running
    binary with it. *)

val serve_if_child : unit -> unit
(** When this process was started with {!child_arg}, serve the
    coordinator on stdin (the socketpair end the coordinator installs
    there) and exit: 0 after [Shutdown] or EOF, 1 on a protocol error.
    Otherwise return at once.  Every binary that can coordinate local
    workers calls it before parsing its own arguments.

    The child ignores SIGINT, SIGTERM and SIGPIPE: a terminal ^C reaches
    the whole process group, and the coordinator needs its workers alive
    to finish the round and checkpoint. *)
