(* Helpers shared by the simulation tests. *)

(* Golden digests: the MD5 of a rendered result must not move. *)
let check_digest name ~expected text =
  let got = Digest.to_hex (Digest.string text) in
  if not (String.equal got expected) then
    Alcotest.failf "%s: digest %s, expected %s" name got expected

(* A run's result as pinned: drops, delivered, received and utilization,
   then each flow's summary, every float at %.17g. *)
let render_result (r : Remy_cc.Topology.result) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%d %d %d %.17g\n" r.drops r.delivered r.received
    r.bottleneck_utilization;
  Array.iter
    (fun (f : Remy_sim.Metrics.flow_summary) ->
      Printf.bprintf b "%.17g %.17g %d %d %.17g\n" f.throughput_mbps
        f.mean_queueing_delay_ms f.bytes f.packets f.on_time)
    r.flows;
  Buffer.contents b
