(** Discrete-event simulation engine.

    A monotonic virtual clock plus an agenda of pending events.  This
    engine plays the role ns-2's scheduler plays for the paper's
    evaluation.

    {b Ordering.}  Every event has a key [(time, seq)], where [seq]
    counts scheduling calls on this engine.  Events fire in key order:
    by time, and events due at the same instant in the order they were
    scheduled, so runs are deterministic.  Scheduling into the past is a
    programming error.

    {b Handles.}  An agenda entry names its callback by an integer
    {!handle}.  A source that fires again and again (a delay line's pop,
    a link's transmission completion, a sender's pacing wake)
    {!register}s its callback once and schedules the handle;
    {!schedule} lends a one-shot closure a recycled slot until it fires.

    {b Delay lines.}  A {!Delay_line} reserves each value's key when the
    value is pushed, stores it beside the value, and keeps only its head
    in the agenda: a line is one entry, however many values it carries.
    Because a line's keys increase in FIFO order, the pop order is the
    same as if every value had been scheduled on its own.

    The agenda is a 4-ary min-heap over unboxed float and int columns;
    test_engine checks its firing order against a binary-heap oracle
    (test/heap.ml). *)

type t

type handle [@@immediate]
(** A registered callback; valid for the engine that made it. *)

val create : ?tracer:Remy_obs.Trace.t -> unit -> t
(** [tracer] (default {!Remy_obs.Trace.off}) is carried by the engine so
    simulator components reach it without extra plumbing; with the
    default, every trace site reduces to a single false branch. *)

val now : t -> float
(** Current virtual time in seconds; starts at [0.]. *)

val tracer : t -> Remy_obs.Trace.t
val set_tracer : t -> Remy_obs.Trace.t -> unit

val schedule_epsilon : float
(** Tolerance used by {!schedule} when deciding whether a timestamp lies
    in the past: events up to this far behind the clock are clamped to
    "now" instead of rejected, absorbing float round-off. *)

val schedule : t -> float -> (unit -> unit) -> unit
(** [schedule t at f] runs [f] when the clock reaches [at].  Raises
    [Invalid_argument] if [at] is NaN or more than {!schedule_epsilon}
    in the past. *)

val schedule_in : t -> float -> (unit -> unit) -> unit
(** [schedule_in t dt f] = [schedule t (now t +. dt) f]. *)

val register : t -> (unit -> unit) -> handle
(** [register t f] gives [f] a handle for the engine's lifetime.  The
    handle may be scheduled any number of times, and may have several
    entries pending; each entry calls [f] once. *)

val no_handle : handle
(** A placeholder for a handle field that is tied to its callback after
    its record exists.  Firing it raises [Invalid_argument]. *)

val schedule_handle : t -> float -> handle -> unit
(** [schedule_handle t at h] is {!schedule} for [h]'s callback, with the
    same checks and messages. *)

val schedule_handle_in : t -> float -> handle -> unit
(** [schedule_handle_in t dt h] = [schedule_handle t (now t +. dt) h]. *)

val run : t -> until:float -> unit
(** Execute events in key order until the agenda empties or the next
    event lies strictly after [until]; the clock finishes at [until].
    A callback that raises is consumed: the exception propagates, and
    the next [run] fires the remaining events in key order. *)

val pending : t -> int
(** Agenda entries waiting to fire: one per scheduled event, except that
    a delay line counts once, for its head, however many values it
    holds (see {!Delay_line.length}). *)

(**/**)

(* Keyed filing, for [Delay_line] only. *)

val key : t -> handle -> int
(** Reserve the next sequence number for an entry of [h]; the result is
    the entry's packed key. *)

val file : t -> float array -> int array -> int -> unit
(** [file t dues keys j] files the entry keyed [(dues.(j), keys.(j))].
    The due time must not lie before {!now}. *)
