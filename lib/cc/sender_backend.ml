open Remy_sim
open Remy_util

(* Pluggable sender implementations for topology runners.  The default
   backend wraps one {!Tcp_sender} record per flow; the structure-of-
   arrays RemyCC fleet in lib/core provides an alternative factory
   with identical observable behaviour (bit-identical runs). *)

type ops = {
  start_flow : unit -> unit;
  handle_ack : int -> unit;
  cwnd : unit -> float;
  pacing_gap : unit -> float;
  srtt : unit -> float option;
}

type env = {
  engine : Engine.t;
  table : Packet.table;
  metrics : Metrics.t;
  n_flows : int;
  flow : int;
  flow_rtt : float; (* two-way propagation over the flow's route *)
  workload : Workload.t;
  start : [ `Immediate | `Off_draw ];
  min_rto : float;
  rng : Prng.t;
  transmit : int -> unit;
}

type factory = env -> ops
(** Called once per flow, in flow order, with one fresh factory value
    per run (fleet factories allocate shared state on first use). *)

let records cc_factory : factory =
 fun env ->
  let sender =
    Tcp_sender.create ~table:env.table env.engine
      {
        Tcp_sender.flow = env.flow;
        cc = cc_factory ();
        rtt = env.flow_rtt;
        workload = env.workload;
        start = env.start;
        min_rto = env.min_rto;
      }
      ~transmit:env.transmit ~metrics:env.metrics ~rng:env.rng
  in
  {
    start_flow = (fun () -> Tcp_sender.start sender);
    handle_ack = (fun ack -> Tcp_sender.handle_ack sender ack);
    cwnd = (fun () -> Tcp_sender.cwnd sender);
    pacing_gap = (fun () -> Tcp_sender.pacing_gap sender);
    srtt = (fun () -> Tcp_sender.srtt sender);
  }
