open Remy_cc
open Remy_sim
open Remy_util

type network =
  | Dumbbell of { service : Topology.service; rtts : float array; loss : float }
  | Topology of { name : string; link_mbps : float; rtt : float }

type t = {
  network : network;
  capacity : int;
  n : int;
  workload : Workload.t;
  start : [ `Immediate | `Off_draw ];
  duration : float;
  replications : int;
  base_seed : int;
}

let check_replications fn replications =
  if replications < 1 then
    invalid_arg (Printf.sprintf "%s: %d replications, need at least 1" fn replications)

(* A negative count cannot size the flows; no senders at all is left to
   the network's check ([Topology.run]'s, or the named builder's). *)
let check_senders fn n =
  if n < 0 then invalid_arg (Printf.sprintf "%s: %d senders is negative" fn n)

let make ?(capacity = Schemes.droptail_capacity) ?rtts ?(loss = 0.)
    ?(replications = 16) ?(base_seed = 7000) ?(start = `Off_draw) ~service ~n
    ~rtt ~workload ~duration () =
  check_senders "Scenario.make" n;
  let rtts = match rtts with Some r -> r | None -> Array.make n rtt in
  if Array.length rtts <> n then
    invalid_arg
      (Printf.sprintf "Scenario.make: %d rtts for %d senders" (Array.length rtts) n);
  (* Written so that NaN fails too. *)
  if not (loss >= 0. && loss < 1.) then
    invalid_arg (Printf.sprintf "Scenario.make: loss rate %g outside [0, 1)" loss);
  check_replications "Scenario.make" replications;
  {
    network = Dumbbell { service; rtts; loss };
    capacity;
    n;
    workload;
    start;
    duration;
    replications;
    base_seed;
  }

let builder name =
  match Topology.builder_of_name name with
  | Some b -> b
  | None ->
    invalid_arg
      (Printf.sprintf "Scenario.topology: unknown topology %S (known: %s)" name
         (String.concat ", " Topology.names))

let topology ?(capacity = Schemes.droptail_capacity) ?(replications = 16)
    ?(base_seed = 7000) ?(start = `Off_draw) ~name ~n ~link_mbps ~rtt ~workload
    ~duration () =
  let (_ : Topology.builder) = builder name in
  check_senders "Scenario.topology" n;
  check_replications "Scenario.topology" replications;
  {
    network = Topology { name; link_mbps; rtt };
    capacity;
    n;
    workload;
    start;
    duration;
    replications;
    base_seed;
  }

(* The scheme whose qdisc pairing queues the dumbbell: every flow
   crosses one bottleneck, so the population must agree on it.  An
   empty population builds no flows, which [Topology.run] rejects, so
   any scheme serves. *)
let lead (population : Schemes.t array) =
  if Array.length population = 0 then Schemes.newreno
  else begin
    let first = population.(0) in
    Array.iter
      (fun (s : Schemes.t) ->
        if s.Schemes.qdisc <> first.Schemes.qdisc then
          invalid_arg
            (Printf.sprintf
               "Scenario.run_population: %s and %s disagree on the qdisc pairing"
               first.Schemes.name s.Schemes.name))
      population;
    first
  end

(* The concrete network of one replication: the builders give every
   flow the lead's factory, and flow [i] then takes [population.(i)]'s. *)
let config t ~lead population ~seed =
  let cc = lead.Schemes.factory in
  let network =
    match t.network with
    | Dumbbell { service; rtts; loss } ->
      let qdisc = Schemes.qdisc_spec lead ~capacity:t.capacity in
      Topology.dumbbell ~service
        ~qdisc:(if loss > 0. then Topology.With_loss (loss, qdisc) else qdisc)
        ~rtts ~cc ~workload:t.workload ~start:t.start ~duration:t.duration ~seed ()
    | Topology { name; link_mbps; rtt } ->
      builder name ~n:t.n ~cc ~workload:t.workload ~start:t.start ~link_mbps
        ~rtt_s:rtt ~queue_capacity:t.capacity ~duration:t.duration ~seed ()
  in
  {
    network with
    Topology.flows =
      Array.mapi
        (fun i (f : Topology.flow_spec) -> { f with cc = population.(i).Schemes.factory })
        network.Topology.flows;
  }

type point = { tput_mbps : float; qdelay_ms : float }

type summary = {
  scheme : string;
  points : point array;
  median_tput : float;
  median_qdelay : float;
  ellipse : Ellipse.t option;
  mean_tput : float;
  mean_rtt_ms : float;
  flows : Metrics.flow_summary array array;
}

(* The population's distinct scheme names, in flow order. *)
let population_name population =
  Array.fold_left
    (fun names (s : Schemes.t) ->
      if List.mem s.Schemes.name names then names else names @ [ s.Schemes.name ])
    [] population
  |> String.concat " + "

let run_population ?(tracer = Remy_obs.Trace.off) ?probe_interval
    ?(faults = Remy_faults.Spec.empty) t (population : Schemes.t array) =
  if Array.length population <> t.n then
    invalid_arg
      (Printf.sprintf "Scenario.run_population: %d schemes for %d senders"
         (Array.length population) t.n);
  let lead = lead population in
  let points = ref [] in
  let rtt_sums = ref [] in
  let flows = ref [] in
  for rep = 0 to t.replications - 1 do
    (* Trace only the first replication: one representative run per
       population keeps trace files bounded; results are unaffected. *)
    let tracer = if rep = 0 then tracer else Remy_obs.Trace.off in
    let config = config t ~lead population ~seed:(t.base_seed + rep) in
    let result = Topology.run ~tracer ?probe_interval ~faults config in
    let rtts = Topology.flow_rtts config in
    flows := result.Topology.flows :: !flows;
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
    scheme = population_name population;
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
    flows = Array.of_list (List.rev !flows);
  }

let run_scheme ?tracer ?probe_interval ?faults t scheme =
  run_population ?tracer ?probe_interval ?faults t (Array.make t.n scheme)

let pp_summary_row fmt s =
  let axes =
    match s.ellipse with
    | Some e -> Format.asprintf "%.2f x %.2f" e.Ellipse.major e.Ellipse.minor
    | None -> "-"
  in
  Format.fprintf fmt "%-16s %8.3f Mbps %10.2f ms   ellipse %s" s.scheme
    s.median_tput s.median_qdelay axes
