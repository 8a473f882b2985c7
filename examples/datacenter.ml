(* Datacenter example (Section 5.5): DCTCP with ECN marking switches vs
   a RemyCC trained to minimize -1/throughput over a DropTail switch.

     dune exec examples/datacenter.exe

   Scale note: 1 Gbps instead of the paper's 10 Gbps, with transfer
   sizes scaled alike (DESIGN.md, substitutions) so a laptop core can
   simulate it. *)

open Remy_scenarios
open Remy_sim

let () =
  let remy =
    Schemes.remy ~name:"RemyCC (DropTail)"
      (Tables.tree Tables.datacenter)
  in
  let scenario =
    Scenario.make
      ~service:(Remy_cc.Dumbbell.Rate_mbps 1000.)
      ~n:64 ~rtt:0.004
      ~workload:(Workload.by_bytes ~mean_bytes:2e6 ~mean_off:0.1)
      ~duration:5. ~replications:2 ()
  in
  Format.printf
    "64 senders, 1 Gbps, 4 ms RTT, exponential 2 MB transfers, 0.1 s off:@.@.";
  List.iter
    (fun scheme ->
      let s = Scenario.run_scheme scenario scheme in
      let tputs = Array.map (fun p -> p.Scenario.tput_mbps) s.Scenario.points in
      let rtts = Array.map (fun p -> p.Scenario.qdelay_ms +. 4.) s.Scenario.points in
      if Array.length tputs > 0 then
        Format.printf
          "  %-18s tput mean %6.1f / median %6.1f Mbps,  rtt mean %6.2f / median \
           %6.2f ms@."
          s.Scenario.scheme
          (Remy_util.Stats.mean tputs)
          (Remy_util.Stats.median tputs)
          (Remy_util.Stats.mean rtts)
          (Remy_util.Stats.median rtts))
    [ Schemes.dctcp; remy ];
  Format.printf
    "@.Paper shape: comparable transfer throughput; the RemyCC pays higher\n\
     per-packet RTTs because its DropTail switch lets queues grow, while\n\
     DCTCP's ECN keeps them near the marking threshold.@."
