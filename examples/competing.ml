(* Incremental deployment (Section 5.6): what happens when one RemyCC
   flow shares a DropTail bottleneck with a conventional buffer-filling
   TCP (Cubic)?

     dune exec examples/competing.exe *)

open Remy_scenarios
open Remy_sim
open Remy_util

let race ~tree ~off =
  let flows =
    [|
      {
        Remy_cc.Dumbbell.cc = Remy.Remycc.factory tree;
        rtt = 0.150;
        workload = Workload.icsi ~mean_off:off;
        start = `Off_draw;
      };
      {
        Remy_cc.Dumbbell.cc = Remy_cc.Cubic.factory ();
        rtt = 0.150;
        workload = Workload.icsi ~mean_off:off;
        start = `Off_draw;
      };
    |]
  in
  let remy_t = ref [] and cubic_t = ref [] in
  for rep = 0 to 5 do
    let r =
      Remy_cc.Topology.run
        (Remy_cc.Topology.dumbbell
           {
             Remy_cc.Dumbbell.service = Remy_cc.Dumbbell.Rate_mbps 15.;
             qdisc = Remy_cc.Dumbbell.Droptail 1000;
             flows;
             duration = 30.;
             seed = 9000 + rep;
             min_rto = Remy_cc.Dumbbell.default_min_rto;
           })
    in
    let f i = r.Remy_cc.Topology.flows.(i) in
    if (f 0).Metrics.on_time > 0. then
      remy_t := (f 0).Metrics.throughput_mbps :: !remy_t;
    if (f 1).Metrics.on_time > 0. then
      cubic_t := (f 1).Metrics.throughput_mbps :: !cubic_t
  done;
  (Stats.mean (Array.of_list !remy_t), Stats.mean (Array.of_list !cubic_t))

let () =
  let tree = Tables.tree Tables.coexist in
  Format.printf
    "One RemyCC (coexistence-trained: RTT design range 100 ms - 10 s) vs one\n\
     Cubic flow on a 15 Mbps / 150 ms DropTail bottleneck, ICSI flow sizes:@.@.";
  Format.printf "%-14s %12s %12s@." "mean off" "RemyCC" "Cubic";
  List.iter
    (fun off ->
      let remy, cubic = race ~tree ~off in
      Format.printf "%11.0f ms %9.2f Mb %9.2f Mb@." (off *. 1e3) remy cubic)
    [ 0.5; 0.2; 0.05 ];
  Format.printf
    "@.Paper shape: at long off times (low duty cycle) the RemyCC grabs spare\n\
     capacity faster and wins; as the competitor approaches full duty cycle,\n\
     the buffer-filling protocol takes the larger share.@."
