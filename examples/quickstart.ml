(* Quickstart: load a computer-generated congestion-control algorithm
   (a RemyCC rule table) and race it against NewReno and Cubic on the
   paper's Fig. 4 dumbbell.

     dune exec examples/quickstart.exe

   If data/delta1.rules is missing, the example stops with the
   `remy_train` command that rebuilds it. *)

open Remy_scenarios
open Remy_sim

let () =
  Format.printf "Loading the delta=1 RemyCC (trained for 10-20 Mbps links, ";
  Format.printf "100-200 ms RTTs, 1-16 senders)...@.";
  let remy =
    Schemes.remy ~name:"RemyCC d=1"
      (Tables.tree Tables.delta1)
  in
  (* The Fig. 4 scenario: eight senders, 15 Mbps, 150 ms, exponential
     100 kB transfers with 0.5 s think times. *)
  let scenario =
    Scenario.make
      ~service:(Remy_cc.Dumbbell.Rate_mbps 15.)
      ~n:8 ~rtt:0.150
      ~workload:(Workload.by_bytes ~mean_bytes:100e3 ~mean_off:0.5)
      ~duration:30. ~replications:4 ()
  in
  Format.printf "@.Simulating 8 senders on a 15 Mbps / 150 ms dumbbell:@.@.";
  List.iter
    (fun scheme ->
      let s = Scenario.run_scheme scenario scheme in
      Format.printf "  %a@." Scenario.pp_summary_row s)
    [ Schemes.newreno; Schemes.cubic; Schemes.vegas; remy ];
  Format.printf
    "@.The computer-generated algorithm should sit above and to the right:\n\
     more median throughput at comparable or lower queueing delay.@."
