(* Cellular example (Section 5.3): run congestion control over a
   time-varying LTE-like downlink, replayed from a trace.

     dune exec examples/cellular.exe

   The link releases one packet at each trace delivery instant; packets
   queue in between, so a protocol that overfills the buffer pays with
   self-inflicted delay ("bufferbloat") while a timid one wastes the
   rate bursts.  This probes the RemyCC outside its design range — the
   paper's "model mismatch" experiment. *)

open Remy_scenarios
open Remy_sim
open Remy_util

let () =
  (* Synthesize a fresh 2-minute trace (see DESIGN.md substitutions for
     why the paper's proprietary Verizon capture is replaced). *)
  let trace =
    Cell_trace.synthesize ~name:"example-lte" (Prng.create 42)
      Cell_trace.verizon_like ~duration:120.
  in
  Format.printf "Synthetic LTE downlink: %d delivery opportunities, mean %.1f Mbps@."
    (Array.length trace.Cell_trace.gaps)
    (Cell_trace.mean_rate_mbps trace);
  let remy =
    Schemes.remy ~name:"RemyCC d=1"
      (Tables.tree Tables.delta1)
  in
  let scenario =
    Scenario.make
      ~service:(Remy_cc.Topology.Trace trace)
      ~n:4 ~rtt:0.050
      ~workload:(Workload.by_bytes ~mean_bytes:100e3 ~mean_off:0.5)
      ~duration:40. ~replications:4 ()
  in
  Format.printf "@.Four senders sharing the cellular link:@.@.";
  List.iter
    (fun scheme ->
      let s = Scenario.run_scheme scenario scheme in
      Format.printf "  %a@." Scenario.pp_summary_row s)
    [ Schemes.newreno; Schemes.cubic; Schemes.cubic_sfqcodel; remy ];
  Format.printf
    "@.Even though the trace's rate range (up to 50 Mbps, with outages) lies\n\
     outside the RemyCC's 10-20 Mbps design range, it should remain\n\
     competitive at this degree of multiplexing (paper Section 5.3).@."
