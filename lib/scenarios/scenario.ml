open Remy_cc
open Remy_sim
open Remy_util

type t = {
  service : Dumbbell.service;
  capacity : int;
  n : int;
  rtts : float array;
  workload : Workload.t;
  start : [ `Immediate | `Off_draw ];
  duration : float;
  replications : int;
  base_seed : int;
}

let make ?(capacity = Schemes.droptail_capacity) ?rtts ?(replications = 16)
    ?(base_seed = 7000) ?(start = `Off_draw) ~service ~n ~rtt ~workload ~duration
    () =
  let rtts = match rtts with Some r -> r | None -> Array.make n rtt in
  assert (Array.length rtts = n);
  { service; capacity; n; rtts; workload; start; duration; replications; base_seed }

type point = { tput_mbps : float; qdelay_ms : float }

type summary = {
  scheme : string;
  points : point array;
  median_tput : float;
  median_qdelay : float;
  ellipse : Ellipse.t option;
  mean_tput : float;
  mean_rtt_ms : float;
  per_flow_tput : float array array;
}

let replicate ?(tracer = Remy_obs.Trace.off) ?probe_interval ?sender_factory
    ?(faults = Remy_faults.Spec.empty) ~scheme ~replications ~base_seed config_of =
  let points = ref [] in
  let rtt_sums = ref [] in
  let per_flow = ref [] in
  for rep = 0 to replications - 1 do
    (* Trace only the first replication: one representative run per
       scheme keeps trace files bounded; results are unaffected. *)
    let tracer = if rep = 0 then tracer else Remy_obs.Trace.off in
    let config = config_of ~seed:(base_seed + rep) in
    let sender_factory = Option.map (fun mk -> mk ()) sender_factory in
    let result = Topology.run ~tracer ?probe_interval ?sender_factory ~faults config in
    let rtts = Topology.flow_rtts config in
    per_flow :=
      Array.map (fun (f : Metrics.flow_summary) -> f.Metrics.throughput_mbps)
        result.Topology.flows
      :: !per_flow;
    Array.iteri
      (fun i (f : Metrics.flow_summary) ->
        if f.Metrics.on_time > 0. && f.Metrics.packets > 0 then begin
          points :=
            {
              tput_mbps = f.Metrics.throughput_mbps;
              qdelay_ms = f.Metrics.mean_queueing_delay_ms;
            }
            :: !points;
          rtt_sums :=
            (f.Metrics.mean_queueing_delay_ms +. (rtts.(i) *. 1e3)) :: !rtt_sums
        end)
      result.Topology.flows
  done;
  let points = Array.of_list (List.rev !points) in
  let tputs = Array.map (fun p -> p.tput_mbps) points in
  let delays = Array.map (fun p -> p.qdelay_ms) points in
  let non_empty = Array.length points > 0 in
  {
    scheme;
    points;
    median_tput = (if non_empty then Stats.median tputs else 0.);
    median_qdelay = (if non_empty then Stats.median delays else 0.);
    ellipse =
      (if Array.length points >= 2 then
         Some (Ellipse.fit (Array.map (fun p -> (p.qdelay_ms, p.tput_mbps)) points))
       else None);
    mean_tput = (if non_empty then Stats.mean tputs else 0.);
    mean_rtt_ms =
      (if !rtt_sums = [] then 0. else Stats.mean (Array.of_list !rtt_sums));
    per_flow_tput = Array.of_list (List.rev !per_flow);
  }

let run_scheme ?tracer ?probe_interval ?faults t scheme =
  replicate ?tracer ?probe_interval ?faults ~scheme:scheme.Schemes.name
    ~replications:t.replications ~base_seed:t.base_seed (fun ~seed ->
      Topology.dumbbell
        {
          Dumbbell.service = t.service;
          qdisc = Schemes.qdisc_spec scheme ~capacity:t.capacity;
          flows =
            Array.init t.n (fun i ->
                {
                  Dumbbell.cc = scheme.Schemes.factory;
                  rtt = t.rtts.(i);
                  workload = t.workload;
                  start = t.start;
                });
          duration = t.duration;
          seed;
          min_rto = Dumbbell.default_min_rto;
        })

let run_all t schemes = List.map (fun s -> run_scheme t s) schemes

let pp_summary_row fmt s =
  let axes =
    match s.ellipse with
    | Some e -> Format.asprintf "%.2f x %.2f" e.Ellipse.major e.Ellipse.minor
    | None -> "-"
  in
  Format.fprintf fmt "%-16s %8.3f Mbps %10.2f ms   ellipse %s" s.scheme
    s.median_tput s.median_qdelay axes
