(** The domain-safety pass (typedtree): a static data-race detector.

    Rule [domain-safety] — mutable state (refs, mutable record fields,
    arrays, Hashtbl, Buffer, Queue, Stack) operated on by a closure that
    crosses a domain boundary ([Domain.spawn], [Par.Pool.map] /
    [submit] / [create ?on_retry], [Domain.DLS.new_key],
    [Thread.create]) without Atomic / Mutex / [Domain.DLS] protection.
    The escape analysis is intra-unit: closures are chased through
    let-bindings (including partial applications and [Some f] wrappers,
    and through the [run] field of job-record literals), the callee
    graph is closed transitively, and an operation is reported only when
    its target is free in the crossing closure — state the closure
    created for itself never fires.  Operations syntactically dominated
    by [Mutex.lock] (rest of the sequence) or inside the thunk of
    [Mutex.protect] count as protected; [Atomic]/[Mutex]/[Condition]/
    [DLS] operations are inherently safe.  State reached only through a
    function parameter is out of scope (the race, if any, is at the
    caller, in its own unit).

    Rule [global-mutable] — module-level [ref] / [Hashtbl.t] / [Buffer.t]
    / [Queue.t] / [Stack.t] / mutable-record bindings: pre-existing
    shared state every domain can reach.  Exempt when the binding's type
    is [Atomic.t] / [Mutex.t] / [Condition.t] / [DLS.key]; mutex-guarded
    registries carry an audited allow annotation.  Module-level arrays
    are deliberately not flagged: constant lookup tables are idiomatic
    and a read-only array is safe to share.

    Findings carry two witnesses: the mutation site (the finding's own
    file:line) and the crossing site with the call chain that connects
    them. *)

val pass : Pass.t
