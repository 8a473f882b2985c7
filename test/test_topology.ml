(* The multi-bottleneck topology acceptance tests: canonical builders
   produce sane traffic, runs are deterministic (including 4096-flow
   incast with randomized on/off arrivals), and malformed networks are
   rejected with errors that name the link or flow.  The one-link
   dumbbell is pinned bit for bit by test_golden_sims. *)

open Remy_cc
open Remy_sim

let check_flow name i (a : Metrics.flow_summary) (b : Metrics.flow_summary) =
  let lbl s = Printf.sprintf "%s: flow %d %s" name i s in
  Alcotest.(check (float 0.)) (lbl "throughput") a.Metrics.throughput_mbps
    b.Metrics.throughput_mbps;
  Alcotest.(check (float 0.))
    (lbl "queueing delay")
    a.Metrics.mean_queueing_delay_ms b.Metrics.mean_queueing_delay_ms;
  Alcotest.(check int) (lbl "bytes") a.Metrics.bytes b.Metrics.bytes;
  Alcotest.(check int) (lbl "packets") a.Metrics.packets b.Metrics.packets;
  Alcotest.(check (float 0.)) (lbl "on_time") a.Metrics.on_time b.Metrics.on_time

(* --- canonical builders --------------------------------------------- *)

let test_parking_lot_shares_chain () =
  (* Long flows cross every hop, so each hop carries strictly more than
     the long flows alone; all flows make progress. *)
  let cfg =
    Topology.parking_lot ~hops:3 ~n:6 ~cc:(Newreno.factory ())
      ~workload:Workload.saturating ~start:`Immediate ~duration:10. ~seed:3 ()
  in
  Alcotest.(check int) "three links" 3 (Array.length cfg.Topology.links);
  let r = Topology.run cfg in
  Array.iteri
    (fun i f ->
      Alcotest.(check bool)
        (Printf.sprintf "flow %d got throughput" i)
        true
        (f.Metrics.throughput_mbps > 0.05))
    r.Topology.flows;
  Alcotest.(check bool) "bottleneck used" true (r.Topology.bottleneck_utilization > 0.5)

let test_fat_tree_pod_smoke () =
  let cfg =
    Topology.fat_tree_pod ~edges:4 ~n:8 ~cc:(Newreno.factory ())
      ~workload:Workload.saturating ~start:`Immediate ~duration:2. ~seed:5 ()
  in
  Alcotest.(check int) "edges + agg + core" 6 (Array.length cfg.Topology.links);
  (* Every flow's route is edge -> aggregation -> core. *)
  Array.iter
    (fun (f : Topology.flow_spec) ->
      Alcotest.(check int) "three hops" 3 (Array.length f.Topology.route))
    cfg.Topology.flows;
  let r = Topology.run cfg in
  Alcotest.(check bool) "delivered traffic" true (r.Topology.received > 0);
  Array.iter
    (fun (f : Metrics.flow_summary) ->
      Alcotest.(check bool) "finite throughput" true
        (Float.is_finite f.Metrics.throughput_mbps))
    r.Topology.flows

let test_incast_bursts () =
  let cfg =
    Topology.incast ~n:16 ~cc:(Newreno.factory ()) ~duration:1. ~seed:2 ()
  in
  let r = Topology.run cfg in
  (* Synchronized bursts: every sender delivers something. *)
  Array.iteri
    (fun i f ->
      Alcotest.(check bool) (Printf.sprintf "sender %d delivered" i) true
        (f.Metrics.packets > 0))
    r.Topology.flows

let test_incast_access_links () =
  let cfg =
    Topology.incast ~access_mbps:100. ~n:4 ~cc:(Newreno.factory ())
      ~duration:1. ~seed:2 ()
  in
  Alcotest.(check int) "bottleneck + one access link per sender" 5
    (Array.length cfg.Topology.links);
  let r = Topology.run cfg in
  Alcotest.(check bool) "delivered traffic" true (r.Topology.received > 0)

(* --- determinism ----------------------------------------------------- *)

let summaries_identical name (a : Topology.result) (b : Topology.result) =
  Array.iteri (fun i f -> check_flow name i f b.Topology.flows.(i)) a.Topology.flows;
  Alcotest.(check int) (name ^ ": drops") a.Topology.drops b.Topology.drops;
  Alcotest.(check int) (name ^ ": received") a.Topology.received b.Topology.received

let test_parking_lot_deterministic () =
  let cfg () =
    Topology.parking_lot ~hops:3 ~n:5 ~cc:(Newreno.factory ())
      ~workload:(Workload.by_bytes ~mean_bytes:5e4 ~mean_off:0.2)
      ~start:`Off_draw ~duration:6. ~seed:13 ()
  in
  summaries_identical "parking-lot" (Topology.run (cfg ())) (Topology.run (cfg ()))

let test_incast_4096_onoff_deterministic () =
  (* The scale target: 4096 flows with randomized on/off arrivals must
     replay bit-identically from the seed. *)
  let cfg () =
    Topology.incast ~n:4096 ~cc:(Newreno.factory ())
      ~workload:(Workload.by_bytes ~mean_bytes:2e4 ~mean_off:0.1)
      ~start:`Off_draw ~duration:0.3 ~seed:17 ()
  in
  let r1 = Topology.run (cfg ()) and r2 = Topology.run (cfg ()) in
  Alcotest.(check int) "4096 flows" 4096 (Array.length r1.Topology.flows);
  Alcotest.(check bool) "some arrivals happened" true (r1.Topology.received > 0);
  summaries_identical "incast-4096" r1 r2

(* --- registry and validation ----------------------------------------- *)

let test_registry () =
  List.iter
    (fun name ->
      match Topology.builder_of_name name with
      | Some _ -> ()
      | None -> Alcotest.failf "registered topology %s not found" name)
    [ "parking-lot"; "fat-tree-pod"; "incast" ];
  Alcotest.(check bool) "unknown name rejected" true
    (Topology.builder_of_name "moebius-strip" = None);
  Alcotest.(check int) "names lists the registry" (List.length Topology.builders)
    (List.length Topology.names);
  (* Every registered builder yields a runnable config. *)
  List.iter
    (fun (name, (builder : Topology.builder)) ->
      let cfg =
        builder ~n:3 ~cc:(Newreno.factory ()) ~duration:0.5 ~seed:1 ()
      in
      let r = Topology.run cfg in
      Alcotest.(check int) (name ^ " flow count") 3 (Array.length r.Topology.flows))
    Topology.builders

let link ?(mbps = 10.) ?(delay_s = 0.01) () =
  { Topology.service = Topology.Rate_mbps mbps; delay_s; qdisc = Topology.Droptail 10 }

let flow ?(access_delay_s = 0.) route =
  {
    Topology.cc = Newreno.factory ();
    route;
    access_delay_s;
    workload = Workload.saturating;
    start = `Immediate;
  }

let cfg ?(links = [| link () |]) flows =
  { Topology.links; flows; duration = 1.; seed = 1; min_rto = 0.2 }

let invalid cfg =
  match Topology.run cfg with
  | _ -> false
  | exception Invalid_argument _ -> true

(* [cfg] must be rejected with an error naming [what]. *)
let rejected what cfg =
  match Topology.run cfg with
  | _ -> Alcotest.failf "%s accepted" what
  | exception Invalid_argument msg ->
    let n = String.length what in
    let rec mentions i =
      i + n <= String.length msg && (String.sub msg i n = what || mentions (i + 1))
    in
    if not (mentions 0) then Alcotest.failf "error %S does not name %s" msg what

let test_validation () =
  Alcotest.(check bool) "empty route rejected" true (invalid (cfg [| flow [||] |]));
  Alcotest.(check bool) "unknown link rejected" true (invalid (cfg [| flow [| 1 |] |]));
  Alcotest.(check bool) "looping route rejected" true
    (invalid (cfg [| flow [| 0; 0 |] |]));
  Alcotest.(check bool) "no flows rejected" true (invalid (cfg [||]))

let with_link_1 l = [| link (); l |]

let test_link_rate_validation () =
  List.iter
    (fun mbps -> rejected "link 1" (cfg ~links:(with_link_1 (link ~mbps ())) [| flow [| 0; 1 |] |]))
    [ 0.; -5.; nan; infinity ]

let test_link_delay_validation () =
  List.iter
    (fun delay_s ->
      rejected "link 1" (cfg ~links:(with_link_1 (link ~delay_s ())) [| flow [| 0; 1 |] |]))
    [ -0.01; nan; infinity ]

let test_access_delay_validation () =
  List.iter
    (fun access_delay_s ->
      rejected "flow 1" (cfg [| flow [| 0 |]; flow ~access_delay_s [| 0 |] |]))
    [ -0.01; nan; infinity ]

let test_duration_validation () =
  List.iter
    (fun duration -> rejected "duration" { (cfg [| flow [| 0 |] |]) with duration })
    [ 0.; -1.; nan; infinity ]

let tests =
  [
    Alcotest.test_case "parking lot shares the chain" `Slow
      test_parking_lot_shares_chain;
    Alcotest.test_case "fat-tree pod smoke" `Quick test_fat_tree_pod_smoke;
    Alcotest.test_case "incast bursts deliver" `Quick test_incast_bursts;
    Alcotest.test_case "incast access links" `Quick test_incast_access_links;
    Alcotest.test_case "parking lot deterministic" `Slow
      test_parking_lot_deterministic;
    Alcotest.test_case "4096-flow incast on/off deterministic" `Slow
      test_incast_4096_onoff_deterministic;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "route validation" `Quick test_validation;
    Alcotest.test_case "link rate validation" `Quick test_link_rate_validation;
    Alcotest.test_case "link delay validation" `Quick test_link_delay_validation;
    Alcotest.test_case "access delay validation" `Quick test_access_delay_validation;
    Alcotest.test_case "duration validation" `Quick test_duration_validation;
  ]
