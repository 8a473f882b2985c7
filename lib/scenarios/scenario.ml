open Remy_cc
open Remy_sim
open Remy_util

type network =
  | Dumbbell of { service : Dumbbell.service; rtts : float array; loss : float }
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

let make ?(capacity = Schemes.droptail_capacity) ?rtts ?(loss = 0.)
    ?(replications = 16) ?(base_seed = 7000) ?(start = `Off_draw) ~service ~n
    ~rtt ~workload ~duration () =
  let rtts = match rtts with Some r -> r | None -> Array.make n rtt in
  if Array.length rtts <> n then
    invalid_arg
      (Printf.sprintf "Scenario.make: %d rtts for %d senders" (Array.length rtts) n);
  (* Written so that NaN fails too. *)
  if not (loss >= 0. && loss < 1.) then
    invalid_arg (Printf.sprintf "Scenario.make: loss rate %g outside [0, 1)" loss);
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

(* The concrete network of one replication. *)
let config t (scheme : Schemes.t) ~seed =
  match t.network with
  | Dumbbell { service; rtts; loss } ->
    let qdisc = Schemes.qdisc_spec scheme ~capacity:t.capacity in
    Topology.dumbbell
      {
        Dumbbell.service;
        qdisc = (if loss > 0. then Dumbbell.With_loss (loss, qdisc) else qdisc);
        flows =
          Array.map
            (fun rtt ->
              {
                Dumbbell.cc = scheme.Schemes.factory;
                rtt;
                workload = t.workload;
                start = t.start;
              })
            rtts;
        duration = t.duration;
        seed;
        min_rto = Dumbbell.default_min_rto;
      }
  | Topology { name; link_mbps; rtt } ->
    builder name ~n:t.n ~cc:scheme.Schemes.factory ~workload:t.workload
      ~start:t.start ~link_mbps ~rtt_s:rtt ~queue_capacity:t.capacity
      ~duration:t.duration ~seed ()

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

let run_scheme ?(tracer = Remy_obs.Trace.off) ?probe_interval
    ?(faults = Remy_faults.Spec.empty) t (scheme : Schemes.t) =
  (* The dumbbell keeps the scheme's own factory; on a named topology a
     RemyCC runs on the structure-of-arrays fleet. *)
  let fleet_tree =
    match t.network with Topology _ -> scheme.Schemes.tree | Dumbbell _ -> None
  in
  let points = ref [] in
  let rtt_sums = ref [] in
  let flows = ref [] in
  for rep = 0 to t.replications - 1 do
    (* Trace only the first replication: one representative run per
       scheme keeps trace files bounded; results are unaffected. *)
    let tracer = if rep = 0 then tracer else Remy_obs.Trace.off in
    let config = config t scheme ~seed:(t.base_seed + rep) in
    let sender_factory =
      Option.map
        (fun tree ->
          Remy.Fleet.factory ?idle_restart_s:scheme.Schemes.idle_restart_s tree)
        fleet_tree
    in
    let result = Topology.run ~tracer ?probe_interval ?sender_factory ~faults config in
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
    scheme = scheme.Schemes.name;
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

let pp_summary_row fmt s =
  let axes =
    match s.ellipse with
    | Some e -> Format.asprintf "%.2f x %.2f" e.Ellipse.major e.Ellipse.minor
    | None -> "-"
  in
  Format.fprintf fmt "%-16s %8.3f Mbps %10.2f ms   ellipse %s" s.scheme
    s.median_tput s.median_qdelay axes
