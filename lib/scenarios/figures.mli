(** Reproductions of every table and figure in the paper's evaluation
    (Section 5), plus two ablations.  Each is a pair: [run] computes its
    rows once, and [print] writes the report from those rows alone.
    EXPERIMENTS.md records paper-vs-measured.

    All experiments are deterministic given [opts.base_seed].  Default
    option sets are scaled down to finish on a laptop core; [full]
    approaches the paper's 100-second, 128-replication scale. *)

type opts = {
  replications : int;
  duration : float;  (** seconds per simulation run *)
  base_seed : int;
  progress : string -> unit;  (** status messages *)
}

val quick : opts
(** 6 replications, 40 s runs. *)

val full : opts
(** 64 replications, 100 s runs (hours of CPU). *)

type figure = {
  run : opts -> Remy_obs.Record.t list;
  print : Format.formatter -> Remy_obs.Record.t list -> unit;
}

val all : (string * figure) list
(** Experiment id -> figure, in paper order, ablations last.  Each row
    is a flat record whose ["row"] field names its sub-table; per id, in
    [run]'s order:

    - ["fig3"] (flow-length CDF vs the paper's Pareto fit; ignores
      [opts]): seven ["cdf"] rows [bytes], [empirical], [pareto_fit];
      one ["median"] row [bytes].
    - ["fig4"], ["fig5"] (dumbbells, n = 8 and 12), ["fig7"], ["fig8"],
      ["fig9"] (LTE-like traces, n = 4, 8, 4): one ["medians"] row per
      scheme, NewReno through Remy d=10, [scheme], [median_tput_mbps],
      [median_qdelay_ms], [sigma] (1, or 0.5 for fig5) and, from two
      points on, the [sigma]-scaled delay x throughput ellipse
      [ellipse_major], [ellipse_minor], [ellipse_angle_deg]; then one
      ["points"] row per scored flow, [scheme], [tput_mbps],
      [qdelay_ms].  Figs. 7–9 open with a ["trace"] row [trace],
      [mean_rate_mbps].  The Section 1 speedup tables (Figs. 4, 7–9)
      are printed from the ["medians"] rows.
    - ["fig6"] (rate doubling when the competitor departs), [table]
      ["delta1"] then ["onex"]: a ["series"] row per delivery to the
      surviving flow, [table], [time_s], [seq] (int); then a ["rate"]
      row [table], [before_pps], [after_pps].
    - ["fig10"] (RTT unfairness): a ["share"] row per scheme and RTT,
      [scheme], [rtt_ms], [samples] (int) and, when [samples] > 0, the
      normalized share [share_mean] and its standard error [share_se].
    - ["tbl_datacenter"] (Section 5.5): a ["scheme"] row per scheme,
      [scheme], [samples] (int) and, when [samples] > 0,
      [tput_mean_mbps], [tput_median_mbps], [rtt_mean_ms],
      [rtt_median_ms].
    - ["tbl_competing"] (Section 5.6): ["vs_compound"] rows by
      [mean_off_s], then ["vs_cubic"] rows by [mean_bytes], each with
      [remy_tput_mbps], [remy_sd_mbps], [other_tput_mbps],
      [other_sd_mbps].
    - ["fig11"] (prior knowledge): a ["score"] row per link speed,
      [link_mbps], [remy_1x], [remy_10x], [cubic_sfqcodel] (mean
      normalized score, NaN when nothing was scored).
    - ["ablation_loss"] (Section 4.1's stochastic-loss claim): a
      ["median"] row per loss rate and scheme, [loss_rate], [scheme],
      [median_tput_mbps] (NaN when no sender switched on).
    - ["ablation_signals"] (the delta = 1 RemyCC, each memory signal
      pinned to zero in turn): a ["variant"] row per variant, [scheme],
      [median_tput_mbps], [median_qdelay_ms]. *)
