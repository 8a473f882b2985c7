(* Bufferbloat and AQM: why the paper evaluates against
   Cubic-over-sfqCoDel.

     dune exec examples/bufferbloat.exe

   A single Cubic flow over a deep (1000-packet) buffer fills it and
   inflates everyone's delay — the "bufferbloat" pathology the paper's
   introduction cites.  Active queue management (CoDel / sfqCoDel)
   controls the queue from inside the network; a RemyCC controls it from
   the endpoint alone, which is the paper's headline provocation. *)

open Remy_scenarios
open Remy_sim

let () =
  let scenario =
    Scenario.make
      ~service:(Remy_cc.Topology.Rate_mbps 15.)
      ~n:2 ~rtt:0.150 ~workload:Workload.saturating ~start:`Immediate
      ~duration:30. ~replications:3 ()
  in
  let remy =
    Schemes.remy ~name:"RemyCC d=10"
      (Tables.tree Tables.delta10)
  in
  let cubic_codel =
    { Schemes.cubic with Schemes.name = "Cubic/CoDel"; qdisc = Schemes.Q_sfqcodel }
  in
  Format.printf
    "Two saturating flows, 15 Mbps / 150 ms, 1000-packet buffer:@.@.";
  Format.printf "  %-18s %10s %14s@." "scheme" "tput" "queueing delay";
  List.iter
    (fun scheme ->
      let s = Scenario.run_scheme scenario scheme in
      Format.printf "  %-18s %7.2f Mb %11.1f ms@." s.Scenario.scheme
        s.Scenario.median_tput s.Scenario.median_qdelay)
    [ Schemes.cubic; cubic_codel; remy ];
  Format.printf
    "@.Cubic alone fills the buffer (hundreds of ms of queue); CoDel fixes it\n\
     from the router; the delay-weighted RemyCC fixes it from the endpoint,\n\
     with no router cooperation at all.@."
