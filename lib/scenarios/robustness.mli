(** Per-axis robustness sweep — Fig. 6's question, machine-readable.

    Section 5.2 asks how a RemyCC's performance decays as the network
    leaves its design range; this module asks the same of adversarial
    faults.  One fault axis at a time (outage, bursty loss, reordering,
    duplication, corruption, rate cut) is swept across intensities on
    an otherwise-fixed dumbbell experiment, and each cell reports the
    mean objective score and its degradation against the clean
    baseline.  Backs [remy_inspect robustness-report]. *)

type level = { label : string; spec : Remy_faults.Spec.t }
type axis = { axis : string; levels : level list }

val default_axes : axis list
(** Six axes, three intensities each (mild / moderate / severe).  Timed
    clauses start at t = 5 s (outage cycles) and t = 10 s (the rate
    cut), so {!run} needs a duration above 10 s. *)

type cell = {
  cell_axis : string;
  level : string;
  spec_string : string;  (** canonical {!Remy_faults.Spec.to_string} *)
  score : float;  (** mean per-sender objective under this fault *)
  degradation : float;  (** baseline score - [score]; bigger = worse *)
  mean_tput_mbps : float;
  mean_rtt_ms : float;
}

type report = {
  scheme : string;
  objective : Remy.Objective.t;
  baseline_score : float;
  baseline_tput_mbps : float;
  baseline_rtt_ms : float;
  cells : cell list;
}

val run : ?axes:axis list -> ?objective:Remy.Objective.t -> Scenario.t -> Schemes.t -> report
(** Runs the clean baseline plus one {!Scenario.run_scheme} per cell,
    all on the scenario's seeds — identical seeds across cells, so
    score differences come only from the faults.  Default objective:
    proportional with delta = 1.  Raises [Invalid_argument], naming the
    axis, level and time, when a level's faults cannot act before the
    scenario's duration ends (none is probabilistic, none starts sooner). *)

val to_records : report -> Remy_obs.Record.t list
(** One flat record per row — a ["baseline"] row then one ["cell"] row
    per sweep point — for JSONL/CSV output via {!Remy_obs.Sink}. *)

val pp : Format.formatter -> report -> unit
(** Aligned human-readable table. *)
