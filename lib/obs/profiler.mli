(** Nestable span profiler: named phases accumulated into a per-run tree.

    [span "eval" f] times [f] against {!Clock.now_s} and charges it to the
    node ["eval"] under the innermost open span of the calling domain.
    Disabled (the default), [span] is one atomic load and a tail call —
    zero cost, like {!Trace} — and since spans only observe, simulation
    and training outputs are bit-identical with profiling on or off.

    Every domain owns a private tree, so spans opened inside
    {!Remy.Par.Pool} tasks are contention-free; {!snapshot} returns the
    enabling domain's tree (root ["main"]) plus all worker-domain trees
    merged into one (root ["workers"]).  Merging visits children in name
    order, making the merged structure deterministic regardless of domain
    scheduling. *)

type node = {
  name : string;
  mutable total_s : float;  (** wall seconds spent inside this span *)
  mutable count : int;  (** times the span was entered *)
  children : (string, node) Hashtbl.t;
}

val enable : unit -> unit
(** Turn span recording on; the calling domain becomes the ["main"] tree
    of {!snapshot}. *)

val disable : unit -> unit
val is_enabled : unit -> bool

val reset : unit -> unit
(** Zero every domain's tree.  Call only while worker domains are idle. *)

val span : string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span.  Exceptions propagate; the span is
    closed either way, and an exception unwinding through several nested
    spans closes each of them (unbalanced exits cannot corrupt the
    stack). *)

val snapshot : unit -> node list
(** Deep-copied forest: [["main"]] and, if any pool domain recorded spans,
    [["main"; "workers"]].  Safe to read while profiling stays enabled. *)

val merge : name:string -> node list -> node
(** Merge trees by path under a fresh root, children visited in sorted
    name order (deterministic).  Exposed for tests. *)

val total : node -> float
val self_s : node -> float
(** Total minus children's totals, clamped at zero. *)

val find : node -> string list -> node option
(** Descend by child names, e.g. [find main ["remy_train"; "design"]]. *)

val to_records : node list -> Record.t list
(** One row per span node, depth first with children in name order:
    [path] (the node's frames from its root, [';']-joined, as in
    {!to_collapsed}), [total_s], [self_s] and [count]. *)

val to_collapsed : node list -> string
(** Collapsed-stack lines ["main;remy_train;design 12345"] weighted by
    integer microseconds of self time — flamegraph.pl / speedscope
    input. *)

val write_files : string -> node list -> unit
(** [write_files path roots] writes {!to_collapsed} to [path] and
    {!to_records} to [path ^ ".jsonl"] (through {!Sink}).  Raises
    [Sys_error] if either cannot be written. *)
