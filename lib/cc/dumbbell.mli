(** A shim kept only for the repository benchmark (bench/e2e), to be
    deleted with its next change: the benchmark names a link's service
    model as [Dumbbell.Rate_mbps].  The network vocabulary lives in
    {!Topology}, and {!Topology.dumbbell} builds the paper's dumbbell. *)

type service = Topology.service = Rate_mbps of float | Trace of Remy_sim.Cell_trace.t
