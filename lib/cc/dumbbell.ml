open Remy_sim

type qdisc_spec =
  | Droptail of int
  | Codel of int
  | Sfq_codel of int
  | Dctcp_red of { capacity : int; threshold : int }
  | Xcp of int
  | With_loss of float * qdisc_spec

type service = Rate_mbps of float | Trace of Cell_trace.t

type flow_spec = {
  cc : Cc.factory;
  rtt : float;
  workload : Workload.t;
  start : [ `Immediate | `Off_draw ];
}

type config = {
  service : service;
  qdisc : qdisc_spec;
  flows : flow_spec array;
  duration : float;
  seed : int;
  min_rto : float;
}

let default_min_rto = 0.2

let service_rate_mbps = function
  | Rate_mbps m -> m
  | Trace t -> Cell_trace.mean_rate_mbps t

(* [rate_mbps] sizes XCP's capacity and [seed] derives the
   stochastic-loss stream. *)
let qdisc_of_spec engine ~tracer ~table ~rate_mbps ~seed spec =
  let rec build = function
    | Droptail capacity -> Droptail.create ~tracer ~table ~capacity ()
    | Codel capacity -> Codel.create ~tracer ~table ~capacity ()
    | Sfq_codel capacity -> Sfq_codel.create ~tracer ~table ~capacity ()
    | Dctcp_red { capacity; threshold } ->
      Red.create_dctcp ~tracer ~table ~capacity ~threshold ()
    | Xcp capacity ->
      let capacity_pps = Link.pps_of_mbps rate_mbps in
      Xcp_router.create engine ~tracer ~table ~capacity_pps ~queue_capacity:capacity ()
    | With_loss (loss_rate, inner) ->
      Lossy.create ~tracer ~table ~inner:(build inner) ~loss_rate
        ~seed:(seed lxor 0x105E) ()
  in
  build spec

(* Fault seeds derive from the run seed by a fixed xor, never by
   splitting the flow RNG chain: installing a schedule must not perturb
   any other stochastic stream (no-fault runs stay bit-identical). *)
let fault_seed ~seed ~link = (seed + (link * 7919)) lxor 0xFA17
