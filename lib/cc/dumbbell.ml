type service = Topology.service = Rate_mbps of float | Trace of Remy_sim.Cell_trace.t
