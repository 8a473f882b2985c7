(** Reproductions of every table and figure in the paper's evaluation
    (Section 5).  Each function runs the experiment and prints the rows
    or series the paper reports; EXPERIMENTS.md records paper-vs-measured.

    All experiments are deterministic given [opts.base_seed].  Default
    option sets are scaled down to finish on a laptop core; [full]
    approaches the paper's 100-second, 128-replication scale. *)

type opts = {
  replications : int;
  duration : float;  (** seconds per simulation run *)
  base_seed : int;
  progress : string -> unit;  (** status messages *)
  artifact_dir : string option;
      (** when set, each experiment also writes gnuplot-ready TSV data
          files (one per figure) into this directory *)
}

val quick : opts
(** 6 replications, 40 s runs. *)

val full : opts
(** 64 replications, 100 s runs (hours of CPU). *)

val fig3 : Format.formatter -> unit
(** Flow-length CDF of the generator vs the paper's Pareto fit. *)

val fig4 : Format.formatter -> opts -> unit
(** Dumbbell, 15 Mbps, n = 8, 100 kB exponential flows: per-scheme
    median throughput/queueing delay + 1-sigma ellipses, and the
    Section 1 summary table of speedups vs RemyCC. *)

val fig5 : Format.formatter -> opts -> unit
(** Dumbbell, n = 12, ICSI empirical flow lengths (1/2-sigma ellipses). *)

val fig6 : Format.formatter -> opts -> unit
(** Sequence plot: a RemyCC flow doubles its rate within about an RTT
    of a competing flow departing. *)

val fig7 : Format.formatter -> opts -> unit
(** Verizon-like LTE trace, n = 4. *)

val fig8 : Format.formatter -> opts -> unit
(** Verizon-like LTE trace, n = 8. *)

val fig9 : Format.formatter -> opts -> unit
(** AT&T-like LTE trace, n = 4. *)

val fig10 : Format.formatter -> opts -> unit
(** RTT unfairness: normalized throughput share at RTT 50/100/150/200 ms
    for the RemyCCs vs Cubic-over-sfqCoDel, with standard errors. *)

val tbl_datacenter : Format.formatter -> opts -> unit
(** Section 5.5: DCTCP (ECN) vs RemyCC (DropTail) at 1/10 of the paper's
    10 Gbps scale — mean/median transfer throughput and RTT. *)

val tbl_competing : Format.formatter -> opts -> unit
(** Section 5.6: one RemyCC flow sharing the bottleneck with Compound
    (off-time sweep) and with Cubic (flow-size sweep). *)

val fig11 : Format.formatter -> opts -> unit
(** Prior-knowledge sensitivity: 1x vs 10x RemyCC vs Cubic-over-sfqCoDel
    across a link-speed sweep, scored by log(tput) - log(delay). *)

(** {2 Beyond-paper ablations}

    Not figures from the paper, but direct tests of claims its prose
    makes about the design. *)

val ablation_loss : Format.formatter -> opts -> unit
(** Section 4.1 claims RemyCCs "robustly handle stochastic
    (non-congestive) packet losses" because loss is not one of their
    congestion signals: sweep an i.i.d. loss rate and compare against
    the loss-based TCPs. *)

val ablation_signals : Format.formatter -> opts -> unit
(** How much does each of the three memory signals contribute?  Runs
    the delta = 1 RemyCC with each signal pinned to zero. *)

val all : (string * (Format.formatter -> opts -> unit)) list
(** Experiment id -> runner, in paper order ("fig3" ignores opts),
    ablations last. *)
