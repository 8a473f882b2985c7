(* Golden outputs of the simulator.  Each case pins the MD5 of a
   printed result: every [Figures.all] experiment's report at the
   test_figures micro options, and the per-flow summaries (at %.17g) of
   a fixed set of dumbbell runs that covers every queue family, a
   trace-driven link, mixed RTTs, the delivery hook, delayed ACKs, a
   fault schedule, a traced run with probes, and the optimizer's
   specimen path.  A refactor of the simulator must leave every digest
   unchanged; a change that means to alter results updates the digests
   it moves in the same commit and says why. *)

open Remy_cc
open Remy_sim

let check_digest name ~expected text =
  let got = Digest.to_hex (Digest.string text) in
  if not (String.equal got expected) then
    Alcotest.failf "%s: digest %s, expected %s" name got expected

(* --- figures --------------------------------------------------------- *)

let figure_digests =
  [
    ("fig3", "f56872a724b3b1e60d274089acfbd504");
    ("fig4", "ac6a6faf8634d5610db1fb6ca0bf56eb");
    ("fig5", "3b98e0f7d604869a92cb0e914bb602e1");
    ("fig6", "109b59b3edb83f92576ba23b5a37d425");
    ("fig7", "3f46695bb2d27a743d9438ffe9e4bb01");
    ("fig8", "da7ba464d80b33fdd613f980021c7ecf");
    ("fig9", "80923eefb5c7cb27b1e1664cc9607875");
    ("fig10", "84195581f1d16bd64dcb10adbc7a7b08");
    ("tbl_datacenter", "8716a60e25373669d2b29a5ce2454dfd");
    ("tbl_competing", "5f228aee16e1c74afca463ac8823088a");
    ("fig11", "5a828ca339792b449d764eb7118af82d");
    ("ablation_loss", "ac51369cdbc135a4b2aa13220c8e2bf2");
    ("ablation_signals", "1f7f3446ca47b59c14fa37e4f8b5d398");
  ]

let figure_case (id, expected) =
  Alcotest.test_case ("figure " ^ id) `Slow (fun () ->
      match List.assoc_opt id Remy_scenarios.Figures.all with
      | None -> Alcotest.failf "experiment %s not registered" id
      | Some f ->
        let buf = Buffer.create 4096 in
        let fmt = Format.formatter_of_buffer buf in
        f fmt (Test_figures.micro_opts ());
        Format.pp_print_flush fmt ();
        check_digest id ~expected (Buffer.contents buf))

(* --- dumbbell runs --------------------------------------------------- *)

let config ?(service = Topology.Rate_mbps 15.) ?(qdisc = Topology.Droptail 1000)
    ?(rtts = [| 0.15; 0.15; 0.15 |])
    ?(workload = Workload.by_bytes ~mean_bytes:1e5 ~mean_off:0.5)
    ?(start = `Off_draw) ?(duration = 8.) ?(seed = 11) cc =
  Topology.dumbbell ~service ~qdisc ~rtts ~cc ~workload ~start ~duration ~seed ()

let run ?tracer ?probe_interval ?delivery_hook ?delack ?faults cfg =
  let r = Topology.run ?tracer ?probe_interval ?delivery_hook ?delack ?faults cfg in
  (r.Topology.flows, r.Topology.drops, r.Topology.delivered, r.Topology.bottleneck_utilization)

let render_flows b (flows : Metrics.flow_summary array) =
  Array.iter
    (fun (f : Metrics.flow_summary) ->
      Printf.bprintf b "%.17g %.17g %d %d %.17g\n" f.Metrics.throughput_mbps
        f.Metrics.mean_queueing_delay_ms f.Metrics.bytes f.Metrics.packets
        f.Metrics.on_time)
    flows

let render (flows, drops, delivered, utilization) =
  let b = Buffer.create 512 in
  Printf.bprintf b "%d %d %.17g\n" drops delivered utilization;
  render_flows b flows;
  Buffer.contents b

let trace =
  lazy
    (Cell_trace.synthesize ~name:"golden" (Remy_util.Prng.create 5)
       Cell_trace.verizon_like ~duration:20.)

let faults =
  match Remy_faults.Spec.parse "outage:1+0.5+2;ge:0.01,0.25,0.5;reorder:0.02,0.005" with
  | Ok f -> f
  | Error e -> invalid_arg e

(* The same schedule plus duplication (the injector's packet copy) and
   corruption (the link's drop at service completion). *)
let faults_dup_corrupt =
  match
    Remy_faults.Spec.parse
      "outage:1+0.5+2;ge:0.01,0.25,0.5;reorder:0.02,0.005;dup:0.01;corrupt:0.005"
  with
  | Ok f -> f
  | Error e -> invalid_arg e

let fig6_series () =
  let series = Buffer.create 4096 in
  let delivery_hook ~flow ~now ~seq = Printf.bprintf series "%d %.17g %d\n" flow now seq in
  let tree = Remy.Rule_tree.create () in
  let out =
    run ~delivery_hook
      (config ~rtts:[| 0.15; 0.15 |] ~workload:Workload.saturating ~start:`Immediate
         ~duration:6. (Remy.Remycc.factory tree))
  in
  render out ^ Buffer.contents series

let traced_run () =
  let sink, read = Remy_obs.Sink.memory () in
  let out =
    run ~tracer:(Remy_obs.Trace.make sink) ~probe_interval:0.25
      (config ~qdisc:(Topology.Droptail 40) ~duration:4. (Newreno.factory ()))
  in
  render out ^ String.concat "\n" (List.map Remy_obs.Record.to_json (read ()))

(* The optimizer's unit of work: specimens of the design-range model,
   whole-table (with the rule-use tally) and with one rule overridden. *)
let specimen_path () =
  let open Remy in
  let model = Net_model.general ~sim_duration:4. () in
  let specs = Net_model.draw_many model (Remy_util.Prng.create 3) 4 in
  let tree = Rule_tree.create () in
  ignore
    (Rule_tree.subdivide tree 0
       ~at:(Memory.make ~ack_ewma:150. ~send_ewma:150. ~rtt_ratio:1.5));
  let b = Buffer.create 4096 in
  List.iter
    (fun (s : Net_model.specimen) ->
      let tally = Tally.create ~capacity:(Rule_tree.capacity tree) ~seed:1 () in
      let summaries ?override ?tally () =
        Evaluator.specimen_flow_summaries ?override ?tally
          ~queue_capacity:model.Net_model.queue_capacity
          ~duration:model.Net_model.sim_duration tree s
      in
      render_flows b (summaries ~tally ());
      List.iter
        (fun id -> Printf.bprintf b "rule %d: %d\n" id (Tally.count tally id))
        (Rule_tree.live_ids tree);
      render_flows b
        (summaries
           ~override:(1, { Action.multiple = 0.5; increment = 2.; intersend_ms = 3. })
           ()))
    specs;
  Buffer.contents b

(* A one-rule table that grows the window by half per ACK and paces at
   2 us floods the design-phase unlimited queue: of these 1 s onex
   specimens, two send over 65,536 packets each. *)
let queue_flood () =
  let open Remy in
  let model = Net_model.onex ~sim_duration:1. () in
  let tree =
    Rule_tree.create
      ~initial_action:{ Action.multiple = 1.5; increment = 1.; intersend_ms = 0.002 }
      ()
  in
  let b = Buffer.create 1024 in
  let floods = ref 0 in
  List.iter
    (fun s ->
      render_flows b
        (Evaluator.specimen_flow_summaries ~queue_capacity:Qdisc.unlimited_capacity
           ~duration:model.Net_model.sim_duration tree s);
      if (Packet.domain_table ()).Packet.acquired >= 1 lsl 16 then incr floods)
    (Net_model.draw_many model (Remy_util.Prng.create 42) 8);
  Alcotest.(check int) "specimens that send 2^16 packets or more" 2 !floods;
  Buffer.contents b

let sim_cases =
  [
    ( "droptail newreno",
      "3f4c03ca71ff9c970502806e38bf79a1",
      fun () -> render (run (config (Newreno.factory ()))) );
    ( "droptail overflow cubic",
      "00e222265043daabf9f960ff85053e89",
      fun () ->
        render
          (run
             (config ~qdisc:(Topology.Droptail 30) ~workload:Workload.saturating
                ~start:`Immediate (Cubic.factory ()))) );
    ( "sfqcodel cubic",
      "82349c58dc9366e2f67765fcc3500713",
      fun () -> render (run (config ~qdisc:(Topology.Sfq_codel 1000) (Cubic.factory ()))) );
    ( "codel vegas",
      "1d7af1b181390734c43931923423dd76",
      fun () -> render (run (config ~qdisc:(Topology.Codel 1000) (Vegas.factory ()))) );
    ( "dctcp red",
      "35a70231ba84f62b49c67ff99abc72cb",
      fun () ->
        render
          (run
             (config
                ~qdisc:(Topology.Dctcp_red { capacity = 1000; threshold = 65 })
                ~service:(Topology.Rate_mbps 100.) ~rtts:(Array.make 4 0.004)
                ~workload:(Workload.by_bytes ~mean_bytes:2e5 ~mean_off:0.1)
                ~duration:2. (Dctcp.factory ()))) );
    ( "xcp",
      "d4e7f142c76d10b79852c736d19f02cc",
      fun () -> render (run (config ~qdisc:(Topology.Xcp 1000) (Xcp.factory ()))) );
    ( "with_loss newreno",
      "7627c09437cd6b9338ef57ba71d45f75",
      fun () ->
        render
          (run
             (config ~qdisc:(Topology.With_loss (0.02, Topology.Droptail 1000))
                (Newreno.factory ()))) );
    ( "cellular trace",
      "b7a0c990495c72ea0af90bc672ee739b",
      fun () ->
        render
          (run (config ~service:(Topology.Trace (Lazy.force trace)) (Cubic.factory ()))) );
    ( "cellular trace xcp",
      "9039805bfe6bedcbcc366d80c5622290",
      fun () ->
        render
          (run
             (config ~service:(Topology.Trace (Lazy.force trace)) ~qdisc:(Topology.Xcp 1000)
                (Xcp.factory ()))) );
    ( "fig10 mixed rtts",
      "f7eed4683456944b5947c2eaed3d83e8",
      fun () ->
        render
          (run
             (config ~service:(Topology.Rate_mbps 10.)
                ~rtts:[| 0.05; 0.1; 0.15; 0.2 |] ~workload:(Workload.icsi ~mean_off:0.2)
                (Remy.Remycc.factory (Remy.Rule_tree.create ())))) );
    ("fig6 delivery hook", "b3b486da515b31e685816b06e42621c9", fig6_series);
    ( "delack",
      "a22d396b52d09e1d54df2e4d1c68b619",
      fun () -> render (run ~delack:(2, 0.2) (config (Newreno.factory ()))) );
    ( "faults",
      "ade6cff485cd9e26bfee5d1c932851b5",
      fun () -> render (run ~faults (config ~duration:6. (Newreno.factory ()))) );
    ( "faults dup corrupt",
      "bbe54c40b67eee59bff90c62acd53552",
      fun () ->
        render (run ~faults:faults_dup_corrupt (config ~duration:6. (Newreno.factory ()))) );
    ("traced with probes", "dc78fb233a4cd62879bdcdfd9b64b4b8", traced_run);
    ("specimen path", "eef62ee64ef09db7021de4fe915adc1b", specimen_path);
    ("queue flood", "5df6380267d2d5e5080d70fac1567422", queue_flood);
  ]

let sim_case (name, expected, f) =
  Alcotest.test_case name `Slow (fun () -> check_digest name ~expected (f ()))

let tests = List.map figure_case figure_digests @ List.map sim_case sim_cases
