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
let qdisc_of_spec engine ~tracer ~rate_mbps ~seed spec =
  let rec build = function
    | Droptail capacity -> Droptail.create ~tracer ~capacity ()
    | Codel capacity -> Codel.create ~tracer ~capacity ()
    | Sfq_codel capacity -> Sfq_codel.create ~tracer ~capacity ()
    | Dctcp_red { capacity; threshold } ->
      Red.create_dctcp ~tracer ~capacity ~threshold ()
    | Xcp capacity ->
      let capacity_pps = Link.pps_of_mbps rate_mbps in
      Xcp_router.create engine ~tracer ~capacity_pps ~queue_capacity:capacity ()
    | With_loss (loss_rate, inner) ->
      Lossy.create ~tracer ~inner:(build inner) ~loss_rate
        ~seed:(seed lxor 0x105E) ()
  in
  build spec

(* Pre-size the packet/ack pools from the scenario's shape: a few
   segments per flow (windows, reorder buffers, in-flight acks) plus
   the bandwidth-delay product the bottleneck can hold, capped so a
   degenerate configuration cannot demand an absurd up-front
   allocation.  Purely a warm start — the pool still grows on miss. *)
let pool_presize ~rate_mbps ~max_rtt ~n_flows =
  let bdp_pkts =
    int_of_float
      (Float.min 32768.
         (Link.bytes_per_sec_of_mbps rate_mbps *. max_rtt
         /. float_of_int Packet.default_size))
  in
  min 65536 ((n_flows * 4) + bdp_pkts + 64)

(* Fault seeds derive from the run seed by a fixed xor, never by
   splitting the flow RNG chain: installing a schedule must not perturb
   any other stochastic stream (no-fault runs stay bit-identical). *)
let fault_seed ~seed ~link = (seed + (link * 7919)) lxor 0xFA17
