(** Pluggable record sinks: where trace and telemetry records go.

    A sink is two closures; everything upstream (tracer, probes,
    optimizer telemetry) is agnostic about the output format.  All sinks
    are synchronous and unbuffered beyond stdlib channel buffering —
    simulation determinism never depends on a sink, because sinks only
    observe. *)

type t = { emit : Record.t -> unit; close : unit -> unit }

val emit : t -> Record.t -> unit
val close : t -> unit
(** Flush (and for {!to_file}, close) the underlying channel. *)

val null : t
(** Swallows everything. *)

val jsonl : out_channel -> t
(** One JSON object per line. *)

val csv : ?columns:string list -> out_channel -> t
(** Comma-separated with a header row.  When [columns] is omitted the
    header is derived from the first record; later records are projected
    onto it (missing fields empty, unknown fields dropped). *)

val memory : unit -> t * (unit -> Record.t list)
(** In-memory sink for tests: returns the sink and a function that reads
    back everything emitted so far, in order. *)

val to_file : ?append:bool -> ?columns:string list -> string -> t
(** Open [path] and write CSV if the extension is [.csv], JSONL
    otherwise.  [close] flushes, fsyncs and closes the file — once it
    returns, the complete trace is durable on disk.  With [~append:true]
    (used by resumed training runs) existing records are kept, new ones
    are appended, and a CSV header is only written if the file was
    empty. *)

val write_file : string -> Record.t list -> unit
(** Write [rows] to [path] as JSONL, whatever its extension, then flush,
    fsync and close as {!to_file} does.  For artifacts whose format is
    fixed (manifests, bench results, profile and figure rows): a [.csv]
    path would otherwise cut every row down to the first row's
    columns. *)

val fold_file : string -> init:'a -> ('a -> Record.t -> 'a) -> ('a, string) result
(** Stream a trace through a fold, one record in memory at a time —
    constant space even for multi-gigabyte traces of 10k-flow runs.
    Sniffs JSONL (first non-empty line starts with ['{']) vs CSV (first
    line is the header).  Stops at the first malformed JSONL line with
    its diagnostic. *)

val read_file : string -> (Record.t list, string) result
(** [fold_file] materialized into a list; prefer {!fold_file} for
    aggregation over large traces. *)
