(** A RemyCC action (Section 4.2): what to do with the window when an
    ACK arrives in a given memory region.

    - [multiple] m >= 0: multiply the congestion window;
    - [increment] b: add to the window (may be negative);
    - [intersend_ms] r > 0: minimum milliseconds between successive
      sends.

    The default rule maps everything to m = 1, b = 1, r = 0.01
    (Section 4.3).  {!neighbors} generates the candidate set of the
    optimizer's "improve" step: per-dimension increments growing
    geometrically away from the current value, combined as a Cartesian
    product. *)

type t = { multiple : float; increment : float; intersend_ms : float }

val default : t
(** m = 1, b = 1, r = 0.01 ms. *)

val clamp : t -> t
(** Restrict to the searchable region: m in [0, 2], b in [-256, 256],
    r in [0.001, 1000] ms. *)

val validate : t -> (unit, string) result
(** Check that every component is finite and inside the {!clamp} region
    — the invariant every optimizer-produced (and every loadable) action
    satisfies.  The error names the offending component and value. *)

val max_window : float
(** The window ceiling {!apply} clamps to (1e6 packets) — also the top
    of the abstract window lattice the static analyzer iterates over. *)

val apply : t -> window:float -> float
(** New congestion window, clamped to [0, {!max_window}] packets. *)

val apply_to : t -> Remy_cc.Cc.pacing -> unit
(** Act on a sender: its window becomes [apply ~window] of the current
    one and its pacing gap [intersend_ms] (in seconds), both stored in
    place without boxing. *)

val equal : t -> t -> bool

val neighbors :
  ?granularity:float * float * float -> ?multipliers:float list -> t -> t list
(** Candidate actions around [t], excluding [t] itself and clamping each
    candidate.  Defaults: granularity (0.01, 1, 0.01) for (m, b, r) and
    magnitude multipliers [1; 8; 64] — i.e. the paper's
    "r +/- 0.01, r +/- 0.08, r +/- 0.64, ..." pattern, 342 candidates
    before deduplication. *)

val pp : Format.formatter -> t -> unit
