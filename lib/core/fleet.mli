(** Structure-of-arrays RemyCC sender fleet.

    A {!Remy_cc.Sender_backend.factory} that keeps the per-flow hot
    state of every sender — reliability counters, RFC 6298 estimator,
    pacing clock, RemyCC memory signals — in flat float/int arrays
    shared across the fleet, instead of one {!Remy_cc.Tcp_sender}
    record and {!Remycc} closure set per flow.  Without a tally,
    steady-state ack processing builds no [Memory.t] record: the three
    signals go straight to {!Rule_tree.lookup3}, so 10k-flow scenarios
    run with O(1) allocation per ack.

    Behaviour is bit-identical to
    [Sender_backend.records (Remycc.factory tree)]: every arithmetic
    expression mirrors [Tcp_sender]/[Remycc]/[Memory] verbatim
    (test_fleet proves run-level equivalence). *)

val max_rto : float
(** Alias of {!Remy_cc.Tcp_sender.max_rto} — the fleet mirrors the
    record sender's RTO clamp exactly. *)

val factory :
  ?override:int * Action.t ->
  ?tally:Tally.t ->
  ?idle_restart_s:float ->
  Rule_tree.t ->
  Remy_cc.Sender_backend.factory
(** [factory tree] builds one fleet per run: the shared arrays are
    allocated on the first per-flow call (sized by [env.n_flows]), so
    use a fresh factory value for every {!Remy_cc.Topology.run}.
    [override], [tally] and [idle_restart_s] behave as in
    {!Remycc.factory}. *)
