(* Design your own congestion-control algorithm (Section 4).

     dune exec examples/design_your_own.exe

   The whole point of the paper: state your assumptions about the
   network and your objective, and let the optimizer derive the
   endpoint algorithm.  This example designs a protocol for a tiny,
   fully-known network in about a minute, then shows the rule table it
   discovered and how it performs.  Notice that the optimizer tends to
   rediscover the link's bandwidth-delay product on its own. *)

open Remy

let () =
  (* 1. Prior assumptions: an 8 Mbps link, 100 ms RTT, 1-2 senders. *)
  let model =
    {
      Net_model.min_senders = 1;
      max_senders = 2;
      link_mbps = (8., 8.);
      rtt_ms = (100., 100.);
      on_process = Net_model.On_seconds 1.0;
      mean_off_s = 1.0;
      queue_capacity = Remy_sim.Qdisc.unlimited_capacity;
      sim_duration = 6.0;
      topology = None;
    }
  in
  (* 2. Objective: log(throughput) - log(delay). *)
  let objective = Objective.proportional ~delta:1.0 in
  (* 3. Let the machine design the protocol. *)
  let config =
    Optimizer.default_config ~specimens_per_step:6 ~candidate_multipliers:[ 1.; 8. ]
      ~rounds_per_rule:6 ~max_epochs:8 ~wall_budget_s:60. ~seed:7 ~model ~objective
      ()
  in
  Format.printf "Designing a congestion-control algorithm (about a minute)...@.";
  let report = Optimizer.design ~progress:(fun _ -> ()) config in
  Format.printf "@.The machine-designed rule table:@.%a@." Rule_tree.pp
    report.Optimizer.tree;
  Format.printf
    "(For reference: the bandwidth-delay product of this network is %.0f \
     packets,@. and one packet's service time is %.2f ms.)@.@."
    (8e6 /. 8. /. 1500. *. 0.1)
    (1500. *. 8. /. 8e6 *. 1e3);
  (* 4. Check the result against NewReno on the modeled network. *)
  let scenario =
    Remy_scenarios.Scenario.make
      ~service:(Remy_cc.Topology.Rate_mbps 8.)
      ~n:2 ~rtt:0.100
      ~workload:(Remy_sim.Workload.by_time ~mean_on:1.0 ~mean_off:1.0)
      ~duration:30. ~replications:4 ()
  in
  List.iter
    (fun scheme ->
      let s = Remy_scenarios.Scenario.run_scheme scenario scheme in
      Format.printf "  %a@." Remy_scenarios.Scenario.pp_summary_row s)
    [
      Remy_scenarios.Schemes.newreno;
      Remy_scenarios.Schemes.remy ~name:"your RemyCC" report.Optimizer.tree;
    ]
