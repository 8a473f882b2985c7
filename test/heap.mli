(** Growable binary min-heap keyed by [(priority, sequence)].

    The test oracle of the simulator's event agenda ({!Remy_sim.Engine}):
    ties on priority are broken by insertion order, as the agenda breaks
    them. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> float -> 'a -> unit
(** [push h priority v] inserts [v].  Entries are kept in parallel
    (priority / sequence / value) arrays, so a steady-state push performs
    no allocation. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element (FIFO among equal
    priorities). *)

val pop_exn : 'a t -> 'a
(** Allocation-free [pop]: returns just the minimum value.  Combine with
    {!min_prio} to recover the priority first.  Raises
    [Invalid_argument] on an empty heap. *)

val min_prio : 'a t -> float
(** Priority of the minimum element, or [Float.infinity] when empty.
    Lets hot loops test "is the next event due?" without the option and
    tuple that {!peek} allocates. *)

val peek : 'a t -> (float * 'a) option
val size : 'a t -> int
val is_empty : 'a t -> bool

val clear : 'a t -> unit
(** Empty the heap but keep the allocated backing array, so a reused
    heap does not regrow from scratch.  Previously stored values remain
    reachable (not collected) until their slots are overwritten. *)

val capacity : 'a t -> int
(** Allocated slots in the backing array (>= {!size}); observable so
    tests and benchmarks can assert {!clear} keeps capacity. *)
