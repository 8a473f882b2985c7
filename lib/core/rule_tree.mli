(** The RemyCC rule table: an octree over the three-dimensional memory
    space (Section 4.3).

    Each live leaf is a rule: a rectangular region of memory space with
    an action, a use count epoch marker, and an id.  Remy's subdivision
    step splits the most-used rule at the median memory value observed
    to trigger it, producing eight children that inherit the action —
    so frequently visited regions of memory space get a finer-grained
    mapping.

    Rule ids are stable: subdividing retires the parent id (it can no
    longer be returned by {!lookup}) and appends eight fresh ids, so
    per-id tally arrays stay valid across a subdivision if sized with
    {!capacity}. *)

type t

val create : ?initial_action:Action.t -> unit -> t
(** A single rule covering all of memory space, mapped to
    {!Action.default} (m = 1, b = 1, r = 0.01). *)

val lookup : t -> Memory.t -> int
(** Id of the rule whose region contains the memory point, found by
    descending the octree from the root: at each split the point goes to
    the child on its side of the split point in every dimension, a
    coordinate equal to the split point going to the high side.
    Allocates nothing, so it serves the per-ACK path. *)

val lookup_uncompiled : t -> Memory.t -> int
(** Alias of {!lookup}.  It exists only because the repository
    benchmark (bench/e2e) still calls it; it goes away with the next
    change to that benchmark. *)

val action : ?override:int * Action.t -> t -> int -> Action.t
(** Action of rule [id]; when [override] names this id its action is
    substituted — how candidate actions are evaluated without mutating
    the shared tree. *)

val set_action : t -> int -> Action.t -> unit
val epoch : t -> int -> int
val set_epoch : t -> int -> int -> unit
val promote_all : t -> int -> unit
(** Set every live rule's epoch ("Set all rules to the current epoch"). *)

val subdivide : t -> int -> at:Memory.t -> int list
(** [subdivide t id ~at] splits live leaf [id] at point [at] (coordinates
    are pulled strictly inside the rule's box if they fall on or outside
    it), returning the eight new rule ids.  Raises [Invalid_argument] if
    [id] is not a live leaf. *)

val collapse_agreeing : t -> int
(** Undo subdivisions that never paid off: every split whose eight
    children are leaves with identical actions is merged back into a
    single rule (bottom-up, so chains collapse fully).  Returns the
    number of splits removed.  This implements the refinement the paper
    suggests as future work in Section 4.3 — "divide a cell only if the
    actions at its boundaries markedly disagree" — as a post-hoc prune:
    children whose improved actions still agree evidently did not need
    the finer granularity. *)

val capacity : t -> int
(** One past the largest rule id ever allocated (size for tally arrays). *)

val live_ids : t -> int list
(** Ids reachable by lookup, in tree order. *)

val num_rules : t -> int
(** Number of live leaves — the paper reports 162-204 for its RemyCCs.
    O(1): maintained incrementally by {!subdivide} and
    {!collapse_agreeing} rather than recounted from the tree. *)

val box : t -> int -> (float * float) array
(** Per-dimension [lo, hi) bounds of a rule's region. *)

val to_sexp : t -> Remy_util.Sexp.t
val of_sexp : Remy_util.Sexp.t -> (t, string) result

val to_sexp_full : t -> Remy_util.Sexp.t
(** Checkpoint-grade serialization: the whole rules array (including
    retired entries), in order, with epochs and leaf flags, plus the
    tree structure by rule id.  Restoring with {!of_sexp_full} yields a
    tree bit-identical to the original for every consumer — same
    {!capacity}, same ids, same epochs — which {!to_sexp}/{!of_sexp}
    (live structure only, ids renumbered) do not guarantee. *)

val of_sexp_full : Remy_util.Sexp.t -> (t, string) result
(** Inverse of {!to_sexp_full}, validating on the way in: well-formed
    boxes, in-bounds actions ({!Action.validate}), split points strictly
    inside their boxes, every live rule referenced by exactly one leaf,
    and stored boxes agreeing with what the split points imply. *)

val validate : t -> (unit, string) result
(** Fail-fast whole-table check for loaded tables, in three layers:
    every live rule's action is finite and within the searchable bounds;
    the live rules' boxes are an exact partition of the 3-D memory
    domain ({!Remy_util.Boxpart} — exhaustive coverage and pairwise
    disjointness, decided without sampling); and every split point stays
    strictly inside its box.  Errors name the offending rule — for
    partition failures, the colliding rule pair (or the gap's witness
    memory point). *)

val save : string -> t -> unit
val load : string -> (t, string) result
(** Every error begins with the path, once; parse errors carry the
    parser's line/column diagnostics. *)

val load_validated : string -> (t, string) result
(** {!load} followed by {!validate}: use before simulating a table so a
    corrupt file fails fast with the offending rule printed, not
    mid-simulation. *)

val pp : Format.formatter -> t -> unit
