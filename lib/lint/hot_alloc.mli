(** The hot-path allocation pass (typedtree): functions annotated
    [(* remy-lint: hot *)] must contain no allocating constructs —
    closures, tuples, records, non-constant constructors (lists,
    options), array/lazy literals, known allocating stdlib calls, or
    partial applications (which allocate a closure).  Partial
    application is only provable when a labelled argument is omitted:
    by result type alone, [add 1] (partial, allocates) and
    [Hashtbl.find tbl key] (total, returns a stored callback) look identical,
    so positional under-application goes undetected rather than
    flagging every function-returning call.

    The check is intra-procedural: a call into another function that
    allocates internally is invisible (and acceptable — the callee can
    be annotated itself).  Boxed-float escapes are approximated by the
    constructor/tuple/record and partial-application rules; what the
    compiler boxes beyond those shapes is out of a lint's reach.
    Allocations on a cold sub-path (growth, error reporting) carry an
    audited [(* remy-lint: allow hot-alloc *)] annotation; arguments of
    [raise]/[failwith]/[invalid_arg]/[assert] are exempt by
    construction. *)

val pass : Pass.t
