(** Aggregate a trace file into drop / mark / occupancy statistics —
    the [remy_inspect trace-summary] backend.

    Consumes the JSONL or CSV that {!Trace} writes and reduces it to
    per-event totals, per-queue enqueue/dequeue/drop/mark counts with
    queue-occupancy statistics (over event [qlen] fields and [qsample]
    rows), per-flow delivery counts and queueing-delay percentiles (over
    [deliver] rows' [delay_s]), and the covered time span.

    A [note] row with a [scheme] field starts a new run: [remy_run
    --trace] writes each scheme's first replication into one file, each
    opening with such a note, and flow ids restart at 0 in every run.
    Per-flow figures are therefore kept and printed per run, labelled by
    the scheme; the rows before the first such note are run 0, so a
    trace without notes prints one unlabelled run. *)

type queue_stats = {
  mutable enqueues : int;
  mutable dequeues : int;
  mutable drops : int;
  mutable marks : int;
  mutable qlen_sum : float;
  mutable qlen_samples : int;
  mutable qlen_max : int;
}

type t = {
  mutable records : int;
  mutable t_min : float;
  mutable t_max : float;
  mutable timeouts : int;
  mutable notes : int;
  by_event : (string, int ref) Hashtbl.t;
  by_queue : (string, queue_stats) Hashtbl.t;
  mutable run : int;  (** the run rows are added to: scheme notes seen so far *)
  schemes : (int, string) Hashtbl.t;  (** the scheme whose note opened a run *)
  delivers_by_flow : (int * int, int ref) Hashtbl.t;  (** keyed by (run, flow) *)
  delay_by_flow : (int * int, Histogram.t) Hashtbl.t;
      (** per-flow queueing delay keyed by (run, flow), from [deliver]
          rows' [delay_s] field; detailed histograms are kept for the
          first {!detailed_flow_cap} flows only *)
  delay_by_run : (int, Histogram.t) Hashtbl.t;
      (** queueing delay aggregated over every flow of a run, uncapped *)
  mutable delay_capped : bool;
      (** true when some flow exceeded the per-flow detail cap *)
}

val detailed_flow_cap : int
(** Per-flow delay histograms kept (64), over all runs; beyond it flows
    contribute to [delay_by_run] only, so summarizing a 10k-flow trace
    stays bounded. *)

val of_records : Record.t list -> t

val of_file : string -> (t, string) result
(** Streams the file via {!Sink.fold_file} — constant space in the
    number of events, bounded space in the number of flows. *)

val count : t -> string -> int
(** Occurrences of an [ev] kind, e.g. [count t "drop"]. *)

val pp : Format.formatter -> t -> unit
