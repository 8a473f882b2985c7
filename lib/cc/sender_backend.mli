(** Pluggable sender implementations for topology runners.

    The {!Topology} runner talks to senders only through {!ops}; a
    {!factory} builds one ops value per flow from that flow's wiring
    {!env}.  {!records} is the default backend — one {!Tcp_sender}
    record per flow — and the structure-of-arrays RemyCC fleet in
    lib/core ([Remy.Fleet]) is an alternative factory with identical
    observable behaviour (runs are bit-identical; test_fleet proves
    it). *)

type ops = {
  start_flow : unit -> unit;
  handle_ack : int -> unit;
      (** Deliver an ACK, by handle.  The caller retains ownership of the
          handle and releases it to the table after this returns. *)
  cwnd : unit -> float;
  pacing_gap : unit -> float;
  srtt : unit -> float option;
}

type env = {
  engine : Remy_sim.Engine.t;
  table : Remy_sim.Packet.table;  (** the run's packets *)
  metrics : Remy_sim.Metrics.t;
  n_flows : int;
  flow : int;
  flow_rtt : float;  (** two-way propagation over the flow's route *)
  workload : Remy_sim.Workload.t;
  start : [ `Immediate | `Off_draw ];
  min_rto : float;
  rng : Remy_util.Prng.t;
  transmit : int -> unit;  (** hand a packet to the flow's first link *)
}

type factory = env -> ops
(** Called once per flow, in flow order, with one fresh factory value
    per run (fleet factories allocate shared state on first use). *)

val records : Cc.factory -> factory
(** The per-record baseline: wraps {!Tcp_sender.create}. *)
