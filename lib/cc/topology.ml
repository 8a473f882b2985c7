open Remy_sim
open Remy_util

(* The simulation runner: an arbitrary set of links and per-flow
   routes.  Each link is a qdisc + transmission server (constant rate
   or a replayed cellular trace) + exit propagation delay; packets are
   routed hop-by-hop via a per-link next-hop table and, after their
   last link, cross that link's delay plus the flow's access delay to a
   structure-of-arrays receiver bank; ACKs return over uncongested
   per-flow reverse paths whose delay equals the flow's total forward
   propagation (symmetric paths).  The paper's dumbbell (Fig. 2) is the
   one-link case built by [dumbbell]. *)

type qdisc_spec =
  | Droptail of int
  | Codel of int
  | Sfq_codel of int
  | Dctcp_red of { capacity : int; threshold : int }
  | Xcp of int
  | With_loss of float * qdisc_spec

type service = Rate_mbps of float | Trace of Cell_trace.t

let default_min_rto = 0.2

type link_spec = {
  service : service;
  delay_s : float; (* one-way propagation at link exit, seconds *)
  qdisc : qdisc_spec;
}

type flow_spec = {
  cc : Cc.factory;
  route : int array; (* link indices, sender side first; non-empty *)
  access_delay_s : float; (* one-way, from the last link to the receiver *)
  workload : Workload.t;
  start : [ `Immediate | `Off_draw ];
}

type config = {
  links : link_spec array;
  flows : flow_spec array;
  duration : float;
  seed : int;
  min_rto : float;
}

type result = {
  flows : Metrics.flow_summary array;
  drops : int; (* across all links, all causes *)
  delivered : int; (* packets through the bottleneck (min-rate) link *)
  received : int; (* fresh data packets accepted by receivers *)
  bottleneck_utilization : float;
  in_flight : int; (* packets the run left queued, held, on a line or in service *)
}

let invalid fmt = Printf.ksprintf invalid_arg fmt

(* The link rate a service model offers: the constant rate, or a
   trace's long-run mean.  Sizes XCP's capacity estimate and the
   utilization denominator. *)
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

let link_rates (config : config) =
  Array.map (fun (l : link_spec) -> service_rate_mbps l.service) config.links

let validate (config : config) ~rates =
  let nl = Array.length config.links in
  if nl = 0 then invalid_arg "Topology.run: no links";
  if Array.length config.flows = 0 then invalid_arg "Topology.run: no flows";
  if not (Float.is_finite config.duration && config.duration > 0.) then
    invalid "Topology.run: duration %g s is not positive" config.duration;
  Array.iteri
    (fun li (l : link_spec) ->
      let rate = rates.(li) in
      if not (Float.is_finite rate && rate > 0.) then
        invalid "Topology.run: link %d has rate %g Mbps" li rate;
      if not (Float.is_finite l.delay_s && l.delay_s >= 0.) then
        invalid "Topology.run: link %d has delay %g s" li l.delay_s)
    config.links;
  Array.iteri
    (fun i f ->
      if not (Float.is_finite f.access_delay_s && f.access_delay_s >= 0.) then
        invalid "Topology.run: flow %d has access delay %g s" i f.access_delay_s;
      if Array.length f.route = 0 then invalid "Topology.run: flow %d has an empty route" i;
      Array.iter
        (fun li ->
          if li < 0 || li >= nl then
            invalid "Topology.run: flow %d routes over unknown link %d" i li)
        f.route;
      (* A loop-free route visits each link at most once; next-hop
         routing is per (link, flow), so a repeat would be ambiguous. *)
      let seen = Array.make nl false in
      Array.iter
        (fun li ->
          if seen.(li) then invalid "Topology.run: flow %d visits link %d twice" i li;
          seen.(li) <- true)
        f.route)
    config.flows

(* The bottleneck: the minimum-rate link, first on ties. *)
let min_index rates =
  let best = ref 0 in
  Array.iteri (fun i r -> if r < rates.(!best) then best := i) rates;
  !best

(* One-way propagation from each flow's sender to its receiver. *)
let forward_delays (config : config) =
  Array.map
    (fun (f : flow_spec) ->
      Array.fold_left (fun acc li -> acc +. config.links.(li).delay_s) 0. f.route
      +. f.access_delay_s)
    config.flows

let flow_rtts config = Array.map (fun d -> 2. *. d) (forward_delays config)

(* One run on [table], which holds every packet of the run as a handle:
   the domain's table, reset on entry, or a private one when nested. *)
let simulate ~table ~tracer ?probe_interval ?delivery_hook ?delack
    ?sender_factory ~faults (config : config) ~rates =
  let n = Array.length config.flows in
  let nl = Array.length config.links in
  let engine = Engine.create ~tracer () in
  let metrics = Metrics.create ~n_flows:n in
  let root_rng = Prng.create config.seed in
  (* One qdisc per link; per-link seeds keep loss streams independent
     (link 0 uses the run seed itself).  Fault injectors, where a
     link's spec is non-empty, wrap the qdisc here and attach to the
     link once built below. *)
  let injectors : Remy_faults.Injector.t option array = Array.make nl None in
  let qdiscs =
    Array.mapi
      (fun li (l : link_spec) ->
        let inner =
          qdisc_of_spec engine ~tracer ~table ~rate_mbps:rates.(li)
            ~seed:(config.seed + (li * 7919))
            l.qdisc
        in
        let gate, inj =
          Remy_faults.Injector.maybe engine ~tracer ~table
            ~seed:(fault_seed ~seed:config.seed ~link:li)
            (Remy_faults.Spec.for_link faults li)
            ~inner
        in
        injectors.(li) <- inj;
        gate)
      config.links
  in
  let fwd_delay = forward_delays config in
  (* Next hop per (link, flow): the link after [li] on the flow's
     route, or -1 to deliver to the flow's receiver. *)
  let next_of = Array.make_matrix nl n (-1) in
  Array.iteri
    (fun i (f : flow_spec) ->
      let len = Array.length f.route in
      for k = 0 to len - 2 do
        next_of.(f.route.(k)).(i) <- f.route.(k + 1)
      done)
    config.flows;
  let bi = min_index rates in
  (* Local accumulator, flushed to the global atomic once per run. *)
  let acks_handled = ref 0 in
  (* The knots (links referenced from lines created before them, the
     receiver bank from delivery lines) are tied through option cells. *)
  let link_arr : Link.t option array = Array.make nl None in
  let bank_ref : Receiver_bank.t option ref = ref None in
  (* Fixed propagation delays are delay lines (an int ring and one
     agenda entry each), not a fresh closure per packet.  A packet
     leaving link [li] crosses the link's exit delay to its next hop or,
     on its last hop, the exit delay plus its flow's access delay to the
     receiver.  Flows with equal delays share a line (a line's firing
     order is that of one event per packet, so sharing changes nothing),
     and the handler reads the flow off the packet: the dumbbell gets
     one delivery line and one ACK line per distinct RTT. *)
  let lines = ref [] in
  let line delay handler =
    let l = Delay_line.create engine ~delay handler in
    lines := l :: !lines;
    l
  in
  let shared_lines delays handler =
    let by_delay = ref [] in
    Array.map
      (fun delay ->
        match List.find_opt (fun (d, _) -> Float.equal d delay) !by_delay with
        | Some (_, l) -> l
        | None ->
          let l = line delay handler in
          by_delay := (delay, l) :: !by_delay;
          l)
      delays
  in
  let forward_lines =
    Array.init nl (fun li ->
        line config.links.(li).delay_s (fun h ->
            match link_arr.(next_of.(li).(table.Packet.flow.{h})) with
            | Some l -> Link.send l h
            | None -> assert false))
  in
  let receive h =
    match !bank_ref with
    | Some bank ->
      Receiver_bank.receive bank ~now:(Engine.now engine) table.Packet.flow.{h} h
    | None -> assert false
  in
  let delivery_line =
    shared_lines
      (Array.map
         (fun (f : flow_spec) ->
           config.links.(f.route.(Array.length f.route - 1)).delay_s +. f.access_delay_s)
         config.flows)
      receive
  in
  Array.iteri
    (fun li (l : link_spec) ->
      let sink h =
        let flow = table.Packet.flow.{h} in
        if next_of.(li).(flow) >= 0 then Delay_line.push forward_lines.(li) h
        else Delay_line.push delivery_line.(flow) h
      in
      let qdisc = qdiscs.(li) in
      link_arr.(li) <-
        Some
          (match l.service with
          | Rate_mbps mbps ->
            Link.create_constant engine ~table ~qdisc
              ~bytes_per_sec:(Link.bytes_per_sec_of_mbps mbps) ~sink
          | Trace trace ->
            Link.create_trace engine ~table ~qdisc ~next_gap:(Cell_trace.gap_fn trace)
              ~sink))
    config.links;
  Array.iteri
    (fun li inj ->
      match (inj, link_arr.(li)) with
      | Some inj, Some link -> Remy_faults.Injector.attach inj link
      | _ -> ())
    injectors;
  let link_of li =
    match link_arr.(li) with Some l -> l | None -> assert false
  in
  (* Flow order fixes the RNG split sequence. *)
  let senders =
    Senders.create ~table engine ~metrics ~min_rto:config.min_rto
      (Array.map
         (fun (f : flow_spec) ->
           let rng = Prng.split root_rng in
           let first = f.route.(0) in
           {
             Senders.cc =
               (* [sender_factory]: the bench/e2e shim, see the mli. *)
               (match sender_factory with Some cc -> cc () | None -> f.cc ());
             workload = f.workload;
             start = f.start;
             rng;
             transmit = (fun h -> Link.send (link_of first) h);
           })
         config.flows)
  in
  let ack_line =
    shared_lines fwd_delay (fun h ->
        incr acks_handled;
        Senders.handle_ack senders table.Packet.flow.{h} h;
        (* The sender copies what it needs; nothing retains the ACK
           past [handle_ack]. *)
        Packet.release table h)
  in
  let bank =
    Receiver_bank.create ?delivery_hook ?delack engine ~metrics ~table
      ~ack_sink:(fun flow h -> Delay_line.push ack_line.(flow) h)
      ~fwd_delay
  in
  bank_ref := Some bank;
  (* Periodic probes: queue depth per link plus per-flow cwnd/pacing/srtt
     samples.  Scheduled before the senders start, so at any shared
     instant the sample reflects state from before that instant's sender
     activity (the agenda is FIFO within a timestamp). *)
  (match probe_interval with
  | Some interval when Remy_obs.Trace.is_on tracer && interval > 0. ->
    let queue_name li (disc : Qdisc.t) =
      if nl = 1 then disc.Qdisc.name else Printf.sprintf "%s#%d" disc.Qdisc.name li
    in
    List.iter
      (fun at ->
        Engine.schedule engine at (fun () ->
            let now = Engine.now engine in
            Array.iteri
              (fun li disc ->
                Remy_obs.Trace.queue_sample tracer ~now ~queue:(queue_name li disc)
                  ~qlen:(disc.Qdisc.length ())
                  ~qbytes:(disc.Qdisc.byte_length ()))
              qdiscs;
            for flow = 0 to n - 1 do
              Remy_obs.Trace.flow_sample tracer ~now ~flow
                ~cwnd:(Senders.cwnd senders flow)
                ~intersend_s:(Senders.pacing_gap senders flow)
                ~srtt_s:(Senders.srtt senders flow)
            done))
      (Remy_obs.Probe.times ~interval ~until:config.duration)
  | _ -> ());
  for i = 0 to n - 1 do
    Senders.start senders i
  done;
  Engine.run engine ~until:config.duration;
  Remy_obs.Counters.add Remy_obs.Counters.acks_processed !acks_handled;
  Remy_obs.Counters.add Remy_obs.Counters.pool_hits (table.Packet.acquired - table.Packet.misses);
  Remy_obs.Counters.add Remy_obs.Counters.pool_misses table.Packet.misses;
  Metrics.finish metrics config.duration;
  let bneck = link_of bi in
  let capacity_bytes = Link.bytes_per_sec_of_mbps rates.(bi) *. config.duration in
  let sum f xs = Array.fold_left (fun acc x -> acc + f x) 0 xs in
  {
    flows = Metrics.summaries metrics;
    drops = sum (fun d -> d.Qdisc.drops ()) qdiscs;
    delivered = Link.delivered_packets bneck;
    received = Receiver_bank.delivered bank;
    bottleneck_utilization =
      (if capacity_bytes > 0. then
         float_of_int (Link.delivered_bytes bneck) /. capacity_bytes
       else 0.);
    in_flight =
      sum (fun d -> d.Qdisc.length ()) qdiscs
      + sum (function Some inj -> Remy_faults.Injector.held inj | None -> 0) injectors
      + sum (fun l -> Link.in_service (Option.get l)) link_arr
      + List.fold_left (fun acc l -> acc + Delay_line.length l) 0 !lines
      + Receiver_bank.pending bank;
  }

let run ?(tracer = Remy_obs.Trace.off) ?probe_interval ?delivery_hook ?delack
    ?sender_factory ?(faults = Remy_faults.Spec.empty) (config : config) =
  let rates = link_rates config in
  validate config ~rates;
  Packet.with_domain_table (fun table ->
      simulate ~table ~tracer ?probe_interval ?delivery_hook ?delack
        ?sender_factory ~faults config ~rates)

(* --- canonical topologies ------------------------------------------ *)

(* The dumbbell: one bottleneck with no exit delay, each flow reaching
   its receiver after half its RTT.  [0. +. x = x] exactly, so every
   forward and reverse delay keeps the bits of [rtt /. 2.]. *)
let dumbbell ~service ~qdisc ~rtts ~cc ~workload ~start ~duration ~seed () =
  {
    links = [| { service; delay_s = 0.; qdisc } |];
    flows =
      Array.map
        (fun rtt -> { cc; route = [| 0 |]; access_delay_s = rtt /. 2.; workload; start })
        rtts;
    duration;
    seed;
    min_rto = default_min_rto;
  }

let droptail_link ~mbps ~delay_s ~capacity =
  { service = Rate_mbps mbps; delay_s; qdisc = Droptail capacity }

let routed ~cc ~workload ~start route =
  { cc; route; access_delay_s = 0.; workload; start }

(* Parking lot (chain of bottlenecks): [hops] links in sequence.  The
   first [long_flows] flows traverse the whole chain; the remaining
   "cross" flows are assigned round-robin to single hops.  The classic
   multi-bottleneck fairness topology. *)
let parking_lot ?(hops = 3) ?(link_mbps = 15.) ?(rtt_s = 0.15)
    ?(queue_capacity = 1000) ?long_flows ~n ~cc ~workload ~start ~duration
    ~seed () =
  if hops < 1 then invalid_arg "Topology.parking_lot: hops must be >= 1";
  if n < 1 then invalid_arg "Topology.parking_lot: n must be >= 1";
  let long = match long_flows with Some l -> min l n | None -> (n + 1) / 2 in
  let hop_delay = rtt_s /. 2. /. float_of_int hops in
  let links =
    Array.init hops (fun _ ->
        droptail_link ~mbps:link_mbps ~delay_s:hop_delay ~capacity:queue_capacity)
  in
  let all_hops = Array.init hops Fun.id in
  let flows =
    Array.init n (fun i ->
        routed ~cc ~workload ~start
          (if i < long then all_hops else [| (i - long) mod hops |]))
  in
  { links; flows; duration; seed; min_rto = default_min_rto }

(* One pod of a fat tree: [edges] edge links feed a shared aggregation
   uplink (oversubscribed [oversub]:1), which feeds a core link.
   Flows are assigned to edges round-robin and all traverse
   edge -> aggregation -> core. *)
let fat_tree_pod ?(edges = 4) ?(edge_mbps = 100.) ?(oversub = 4.)
    ?(rtt_s = 0.002) ?(queue_capacity = 1000) ~n ~cc ~workload ~start
    ~duration ~seed () =
  if edges < 1 then invalid_arg "Topology.fat_tree_pod: edges must be >= 1";
  if n < 1 then invalid_arg "Topology.fat_tree_pod: n must be >= 1";
  let agg_mbps = edge_mbps *. float_of_int edges /. oversub in
  let hop_delay = rtt_s /. 2. /. 3. in
  let link mbps = droptail_link ~mbps ~delay_s:hop_delay ~capacity:queue_capacity in
  let links =
    Array.init (edges + 2) (fun i ->
        if i < edges then link edge_mbps
        else if i = edges then link agg_mbps
        else link (agg_mbps *. 2.))
  in
  let flows =
    Array.init n (fun i -> routed ~cc ~workload ~start [| i mod edges; edges; edges + 1 |])
  in
  { links; flows; duration; seed; min_rto = default_min_rto }

(* Many-to-one datacenter incast: n senders share one bottleneck
   toward a single receiver host, each firing a synchronized burst
   every [period_s] (extending {!Workload.incast}).  [access_mbps]
   optionally puts a private access link in front of every sender. *)
let incast ?(bottleneck_mbps = 1000.) ?access_mbps ?(rtt_s = 4e-4)
    ?(queue_capacity = 1000) ?(burst_kb = 32.) ?(period_s = 0.02) ?workload
    ?(start = `Immediate) ~n ~cc ~duration ~seed () =
  if n < 1 then invalid_arg "Topology.incast: n must be >= 1";
  let workload =
    match workload with
    | Some w -> w
    | None -> Workload.incast ~burst_bytes:(burst_kb *. 1e3) ~period:period_s
  in
  match access_mbps with
  | None ->
    let links =
      [| droptail_link ~mbps:bottleneck_mbps ~delay_s:(rtt_s /. 2.) ~capacity:queue_capacity |]
    in
    let flows = Array.init n (fun _ -> routed ~cc ~workload ~start [| 0 |]) in
    { links; flows; duration; seed; min_rto = default_min_rto }
  | Some access ->
    (* Link n is the shared bottleneck; links 0..n-1 are per-sender
       access links carrying a quarter of the propagation budget. *)
    let links =
      Array.init (n + 1) (fun i ->
          if i < n then
            droptail_link ~mbps:access ~delay_s:(rtt_s /. 8.) ~capacity:queue_capacity
          else
            droptail_link ~mbps:bottleneck_mbps ~delay_s:(rtt_s /. 4.)
              ~capacity:queue_capacity)
    in
    let flows = Array.init n (fun i -> routed ~cc ~workload ~start [| i; n |]) in
    { links; flows; duration; seed; min_rto = default_min_rto }

(* --- registry ------------------------------------------------------ *)

type builder =
  n:int ->
  cc:Cc.factory ->
  ?workload:Workload.t ->
  ?start:[ `Immediate | `Off_draw ] ->
  ?link_mbps:float ->
  ?rtt_s:float ->
  ?queue_capacity:int ->
  duration:float ->
  seed:int ->
  unit ->
  config

let default_workload w =
  match w with
  | Some w -> w
  | None -> Workload.by_time ~mean_on:1.0 ~mean_off:0.5

let builders : (string * builder) list =
  [
    ( "parking-lot",
      fun ~n ~cc ?workload ?(start = `Off_draw) ?(link_mbps = 15.)
          ?(rtt_s = 0.15) ?(queue_capacity = 1000) ~duration ~seed () ->
        parking_lot ~link_mbps ~rtt_s ~queue_capacity ~n ~cc
          ~workload:(default_workload workload) ~start ~duration ~seed () );
    ( "fat-tree-pod",
      fun ~n ~cc ?workload ?(start = `Off_draw) ?(link_mbps = 100.)
          ?(rtt_s = 0.002) ?(queue_capacity = 1000) ~duration ~seed () ->
        fat_tree_pod ~edge_mbps:link_mbps ~rtt_s ~queue_capacity ~n ~cc
          ~workload:(default_workload workload) ~start ~duration ~seed () );
    ( "incast",
      fun ~n ~cc ?workload ?(start = `Immediate) ?(link_mbps = 1000.)
          ?(rtt_s = 4e-4) ?(queue_capacity = 1000) ~duration ~seed () ->
        incast ~bottleneck_mbps:link_mbps ~rtt_s ~queue_capacity ?workload
          ~start ~n ~cc ~duration ~seed () );
  ]

let names = List.map fst builders

let builder_of_name name =
  List.find_map
    (fun (n, b) -> if String.equal n name then Some b else None)
    builders
