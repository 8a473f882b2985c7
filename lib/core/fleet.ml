(* A shim for the repository benchmark: bench/e2e's scale_incast still
   builds its senders' congestion control with [Fleet.factory ?tally
   tree] and hands it to the benchmark shim of [Topology.run].  Every
   sender now runs on the one [Senders] core, so the name is an alias;
   delete it with the next benchmark change. *)
let factory = Remycc.factory
