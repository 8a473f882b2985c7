(* Dumbbell runs for the tests, through the one simulation runner. *)
let dumbbell ?tracer ?probe_interval ?delivery_hook ?delack ?faults cfg =
  Remy_cc.Topology.run ?tracer ?probe_interval ?delivery_hook ?delack ?faults
    (Remy_cc.Topology.dumbbell cfg)
