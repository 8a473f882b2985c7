(** Self-describing run manifests.

    A manifest is one flat {!Record} written next to a run's outputs,
    answering "what produced this file": tool name, full argv, git
    describe, configuration fingerprint, host core count, seed, wall
    time, final {!Counters} snapshot, and {!Metrics} histogram
    summaries.  It is written once at invocation start (status
    ["running"]) and rewritten at exit, so a crash leaves a readable
    marker rather than nothing. *)

val schema : string
(** ["remy-manifest-v1"], the [schema] field every manifest leads with. *)

type t = {
  tool : string;
  status : string;  (** running | completed | interrupted | failed *)
  argv : string;
  git : string;
  config_fingerprint : string;
  host_cores : int;
  seed : int;
  wall_s : float;
  counters : Counters.snapshot;
  extras : Record.t;
      (** [h_*] histogram summary fields plus caller extras ([dist_*]
          distributed-run fields) *)
}

val make :
  tool:string ->
  ?argv:string array ->
  ?git:string ->
  ?config_fingerprint:string ->
  ?seed:int ->
  ?extras:Record.t ->
  unit ->
  t
(** Fresh ["running"] manifest.  [argv] defaults to [Sys.argv]; [git] to
    {!git_describe}.  [extras] are extra fields carried through
    {!finalize} (use [h_] or [dist_] prefixed keys so {!of_record}
    recovers them). *)

val finalize : t -> status:string -> wall_s:float -> t
(** Final manifest: given status and wall time, current counters,
    caller extras, and refreshed histogram summaries from
    {!Metrics.summary_fields}. *)

val to_record : t -> Record.t
val of_record : Record.t -> (t, string) result
(** Inverse of {!to_record} (field order aside): manifests round-trip
    through the record codec. *)

val write : path:string -> t -> unit
(** {!to_record} as the one JSONL row of [path], whatever its extension,
    through {!Sink.write_file}; overwrites. *)

val load : path:string -> (t, string) result
(** Read back what {!write} wrote. *)

val git_describe : unit -> string
(** [git describe --always --dirty --tags], or ["unknown"] when git or
    the repository is unavailable. *)
