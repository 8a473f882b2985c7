(** Discrete-event simulation engine.

    A monotonic virtual clock plus an agenda of closures, held in a
    hierarchical timing wheel ({!Remy_util.Timing_wheel}, O(1) per
    event; its pop order is checked against {!Remy_util.Heap} in
    test_timing_wheel).  Events scheduled for the same instant fire in
    scheduling order (determinism), and scheduling into the past is a
    programming error.  This engine plays the role ns-2's scheduler
    plays for the paper's evaluation. *)

type t

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

val run : t -> until:float -> unit
(** Execute events in order until the agenda empties or the next event
    lies strictly after [until]; the clock finishes at [until]. *)

val pending : t -> int
(** Number of queued events (for tests and invariant checks). *)
