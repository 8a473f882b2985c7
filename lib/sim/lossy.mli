(** Stochastic (non-congestive) packet loss.

    Wraps any queue discipline with an i.i.d. Bernoulli drop ahead of the
    queue — the "links with non-congestive stochastic loss" of the
    paper's introduction (e.g. wireless corruption).  Section 4.1 argues
    that because a RemyCC does not use loss as a congestion signal, it
    should "robustly handle stochastic (non-congestive) packet losses
    without adversely reducing performance", unlike loss-based TCP; the
    [ablation_loss] benchmark tests exactly that claim with this
    wrapper. *)

val create :
  ?tracer:Remy_obs.Trace.t ->
  table:Packet.table ->
  inner:Qdisc.t ->
  loss_rate:float ->
  seed:int ->
  unit ->
  Qdisc.t
(** [loss_rate] in [0, 1); drops are deterministic given [seed], are
    released to [table] and are counted in the wrapper's [drops] (added
    to the inner qdisc's).
    [tracer] (default off) records the wrapper's random drops; events
    from the inner qdisc need the inner qdisc's own tracer. *)
