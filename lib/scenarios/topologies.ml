open Remy_cc
open Remy_sim

(* Scenario-level registry for the multi-bottleneck topologies: the
   same replicated experiment as {!Scenario}, but the network is built
   by a named {!Topology} builder instead of the dumbbell.  RemyCC
   schemes run on the structure-of-arrays {!Remy.Fleet} backend —
   bit-identical to the per-record one, and the reason a 10k-flow
   incast is feasible from the CLI. *)

type t = {
  topology : string;
  n : int;
  link_mbps : float option; (* None = builder default *)
  rtt_s : float option;
  capacity : int;
  workload : Workload.t option;
  start : [ `Immediate | `Off_draw ] option;
  duration : float;
  replications : int;
  base_seed : int;
}

let names = Topology.names

let make ?(capacity = Schemes.droptail_capacity) ?(replications = 16)
    ?(base_seed = 7000) ?link_mbps ?rtt_s ?workload ?start ~topology ~n
    ~duration () =
  if Topology.builder_of_name topology = None then
    invalid_arg (Printf.sprintf "Topologies.make: unknown topology %S" topology);
  {
    topology;
    n;
    link_mbps;
    rtt_s;
    capacity;
    workload;
    start;
    duration;
    replications;
    base_seed;
  }

let config t ~(scheme : Schemes.t) ~seed =
  let builder =
    match Topology.builder_of_name t.topology with
    | Some b -> b
    | None -> assert false (* checked in [make] *)
  in
  builder ~n:t.n ~cc:scheme.Schemes.factory ?workload:t.workload ?start:t.start
    ?link_mbps:t.link_mbps ?rtt_s:t.rtt_s ~queue_capacity:t.capacity
    ~duration:t.duration ~seed ()

let run_scheme ?tracer ?probe_interval ?faults t (scheme : Schemes.t) =
  (* RemyCC schemes get the SoA fleet; everything else keeps the
     per-record backend (the fleet is RemyCC-specialized). *)
  let sender_factory =
    Option.map (fun tree () -> Remy.Fleet.factory tree) scheme.Schemes.tree
  in
  Scenario.replicate ?tracer ?probe_interval ?sender_factory ?faults
    ~scheme:scheme.Schemes.name ~replications:t.replications ~base_seed:t.base_seed
    (fun ~seed -> config t ~scheme ~seed)

let run_all t schemes = List.map (fun s -> run_scheme t s) schemes
