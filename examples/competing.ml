(* Incremental deployment (Section 5.6): what happens when one RemyCC
   flow shares a DropTail bottleneck with a conventional buffer-filling
   TCP (Cubic)?

     dune exec examples/competing.exe *)

open Remy_scenarios
open Remy_sim
open Remy_util

(* Six replications of the pair; the mean throughput of each flow over
   the replications in which it switched on. *)
let race ~remy ~off =
  let scenario =
    Scenario.make ~service:(Remy_cc.Topology.Rate_mbps 15.) ~n:2 ~rtt:0.150
      ~workload:(Workload.icsi ~mean_off:off) ~duration:30. ~replications:6
      ~base_seed:9000 ()
  in
  let s = Scenario.run_population scenario [| remy; Schemes.cubic |] in
  let mean i =
    Stats.mean
      (Array.of_list
         (Array.fold_left
            (fun acc (row : Metrics.flow_summary array) ->
              if row.(i).Metrics.on_time > 0. then row.(i).Metrics.throughput_mbps :: acc
              else acc)
            [] s.Scenario.flows))
  in
  (mean 0, mean 1)

let () =
  let remy = Tables.scheme Tables.coexist in
  Format.printf
    "One RemyCC (coexistence-trained: RTT design range 100 ms - 10 s) vs one\n\
     Cubic flow on a 15 Mbps / 150 ms DropTail bottleneck, ICSI flow sizes:@.@.";
  Format.printf "%-14s %12s %12s@." "mean off" "RemyCC" "Cubic";
  List.iter
    (fun off ->
      let remy_mbps, cubic_mbps = race ~remy ~off in
      Format.printf "%11.0f ms %9.2f Mb %9.2f Mb@." (off *. 1e3) remy_mbps cubic_mbps)
    [ 0.5; 0.2; 0.05 ];
  Format.printf
    "@.Paper shape: at long off times (low duty cycle) the RemyCC grabs spare\n\
     capacity faster and wins; as the competitor approaches full duty cycle,\n\
     the buffer-filling protocol takes the larger share.@."
