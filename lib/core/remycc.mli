(** The RemyCC runtime: interpret a rule table as a congestion-control
    module (Section 4.2).

    On every incoming ACK the sender updates its three-signal memory,
    looks up the rule covering the current memory point, and applies the
    action: cwnd <- m * cwnd + b, with sends paced at least r ms apart.
    At flow start the memory is all-zeroes and the initial window comes
    from applying that region's action to a window of zero.

    RemyCCs deliberately ignore loss and timeout signals (Section 4.1):
    the window is left untouched and the host TCP's retransmission
    machinery ({!Remy_cc.Senders}) recovers the data.

    Unmasked and without idle restart, the per-ACK hook allocates one
    {!Memory.t} (the lookup point, which a tally also records) and
    nothing else: the memory tracker is folded
    in place from the ACK's columns ({!Memory.observe}), the lookup
    descends on that record, and the action is applied to the flat
    {!Remy_cc.Cc.pacing} record ({!Action.apply_to}).  Its RTT sample is
    [now -. sent_at] on every ACK, retransmission or not. *)

type mask = { use_ack_ewma : bool; use_send_ewma : bool; use_rtt_ratio : bool }
(** Signal ablation: a disabled signal is pinned to zero before the rule
    lookup, so the table only ever sees that dimension's initial-state
    region.  Used by the [ablation_signals] benchmark to measure how
    much each of Section 4.1's three congestion signals contributes. *)

val all_signals : mask

val make :
  ?override:int * Action.t ->
  ?tally:Tally.t ->
  ?mask:mask ->
  ?idle_restart_s:float ->
  Rule_tree.t ->
  Remy_cc.Cc.t
(** [override] substitutes one rule's action (candidate evaluation);
    [tally] records rule usage and memory samples.  The returned module
    only reads the tree, so one tree may back many concurrent flows.
    [idle_restart_s] (default infinity = off) restarts the memory
    estimators when the ACK stream gaps longer than that — graceful
    degradation across link outages, where one huge interarrival delta
    would otherwise poison the EWMAs for dozens of ACKs.  Leave unset in
    design runs: enabling it changes behavior, not just observation. *)

val factory :
  ?override:int * Action.t ->
  ?tally:Tally.t ->
  ?mask:mask ->
  ?idle_restart_s:float ->
  Rule_tree.t ->
  Remy_cc.Cc.factory

val load_result : string -> (Rule_tree.t, string) result
(** Load and validate a rule table for execution
    ({!Rule_tree.load_validated}): callers get a printable diagnostic —
    parse position or offending rule — instead of an exception or a
    mid-simulation failure. *)
