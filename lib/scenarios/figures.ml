open Remy_sim
open Remy_util

type opts = {
  replications : int;
  duration : float;
  base_seed : int;
  progress : string -> unit;
  artifact_dir : string option;
}

let quick =
  {
    replications = 6;
    duration = 40.;
    base_seed = 7000;
    progress = ignore;
    artifact_dir = None;
  }

let full = { quick with replications = 64; duration = 100. }

(* Write one TSV artifact ([name].tsv) when an artifact directory is
   configured: a header line then one row per data point. *)
let artifact opts name ~header rows =
  match opts.artifact_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (name ^ ".tsv") in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc ("# " ^ String.concat "\t" header ^ "\n");
        List.iter
          (fun row -> output_string oc (String.concat "\t" row ^ "\n"))
          rows);
    opts.progress (Printf.sprintf "wrote %s" path)

let scatter_artifact opts name summaries =
  artifact opts name
    ~header:[ "scheme"; "tput_mbps"; "qdelay_ms" ]
    (List.concat_map
       (fun (s : Scenario.summary) ->
         Array.to_list
           (Array.map
              (fun (p : Scenario.point) ->
                [
                  s.Scenario.scheme;
                  Printf.sprintf "%.6f" p.Scenario.tput_mbps;
                  Printf.sprintf "%.6f" p.Scenario.qdelay_ms;
                ])
              s.Scenario.points))
       summaries);
  artifact opts (name ^ "_medians")
    ~header:[ "scheme"; "median_tput_mbps"; "median_qdelay_ms" ]
    (List.map
       (fun (s : Scenario.summary) ->
         [
           s.Scenario.scheme;
           Printf.sprintf "%.6f" s.Scenario.median_tput;
           Printf.sprintf "%.6f" s.Scenario.median_qdelay;
         ])
       summaries)

let header fmt title note =
  Format.fprintf fmt "@.==== %s ====@.%s@.@." title note

let load_trace opts name profile =
  let path = Filename.concat (Tables.data_dir ()) (name ^ ".trace") in
  match Cell_trace.load path with
  | Ok t -> t
  | Error _ ->
    opts.progress
      (Printf.sprintf "trace %s missing; synthesizing (bin/gen_traces regenerates it)"
         path);
    let t = Cell_trace.synthesize ~name (Prng.create 20130812) profile ~duration:300. in
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Cell_trace.save path t;
    t

(* --- Fig. 3 ---------------------------------------------------------- *)

let fig3 fmt =
  header fmt "Figure 3: ICSI flow-length distribution"
    "Empirical CDF of 100k draws vs the paper's Pareto(x+40) fit (Xm=147, alpha=0.5).\n\
     The generator adds the 16 KiB evaluation floor, so compare after removing it.";
  let rng = Prng.create 3 in
  let n = 100_000 in
  let samples =
    Array.init n (fun _ -> Dist.pareto_icsi rng -. 16384.)
  in
  Array.sort Float.compare samples;
  Format.fprintf fmt "%12s %12s %12s@." "bytes" "empirical" "Pareto fit";
  List.iter
    (fun x ->
      let count = ref 0 in
      Array.iter (fun s -> if s <= x then incr count) samples;
      let empirical = float_of_int !count /. float_of_int n in
      Format.fprintf fmt "%12.0f %12.4f %12.4f@." x empirical (Dist.icsi_cdf x))
    [ 150.; 300.; 1e3; 1e4; 1e5; 1e6; 1e7 ];
  Format.fprintf fmt
    "@.shape check: heavy tail (no finite mean); median ~ %.0f bytes (paper: Xm*4-40 = 548)@."
    (Stats.median samples)

(* --- throughput-delay experiments (Figs. 4, 5, 7, 8, 9) -------------- *)

let pp_ellipse_row fmt (s : Scenario.summary) ~sigma =
  let ell =
    match s.Scenario.ellipse with
    | Some e ->
      let e = Remy_util.Ellipse.scale e sigma in
      Format.asprintf "%.2f x %.2f at %.0f deg" e.Ellipse.major e.Ellipse.minor
        (e.Ellipse.angle *. 180. /. Float.pi)
    | None -> "-"
  in
  Format.fprintf fmt "%-16s %8.3f %10.2f   %s@." s.Scenario.scheme
    s.Scenario.median_tput s.Scenario.median_qdelay ell

let throughput_delay_experiment fmt ~title ~note ~scenario ~schemes ~sigma =
  header fmt title note;
  Format.fprintf fmt "%-16s %8s %10s   %s@." "scheme" "tput" "qdelay"
    (Printf.sprintf "%g-sigma ellipse (delay x tput)" sigma);
  Format.fprintf fmt "%-16s %8s %10s@." "" "(Mbps)" "(ms)";
  let summaries = List.map (Scenario.run_scheme scenario) schemes in
  List.iter (fun s -> pp_ellipse_row fmt s ~sigma) summaries;
  summaries

let delta_schemes () =
  List.map (fun spec -> Tables.scheme spec) [ Tables.delta01; Tables.delta1; Tables.delta10 ]

let standard_schemes () = Schemes.fig4_baselines @ delta_schemes ()

let summary_table fmt summaries ~reference =
  match List.find_opt (fun s -> s.Scenario.scheme = reference) summaries with
  | None -> ()
  | Some remy ->
    Format.fprintf fmt
      "@.Section-1-style summary (median speedup and delay reduction of %s):@."
      reference;
    Format.fprintf fmt "%-16s %14s %16s@." "protocol" "median speedup"
      "delay reduction";
    List.iter
      (fun s ->
        if s.Scenario.scheme <> reference && s.Scenario.median_tput > 0. then
          Format.fprintf fmt "%-16s %13.2fx %15.2fx@." s.Scenario.scheme
            (remy.Scenario.median_tput /. s.Scenario.median_tput)
            (s.Scenario.median_qdelay /. Float.max 1e-9 remy.Scenario.median_qdelay))
      summaries

let fig4 fmt opts =
  let scenario =
    Scenario.make
      ~service:(Remy_cc.Dumbbell.Rate_mbps 15.)
      ~n:8 ~rtt:0.150
      ~workload:(Workload.by_bytes ~mean_bytes:100e3 ~mean_off:0.5)
      ~duration:opts.duration ~replications:opts.replications
      ~base_seed:opts.base_seed ()
  in
  let summaries =
    throughput_delay_experiment fmt
      ~title:"Figure 4 + Section 1 table: dumbbell, 15 Mbps, n = 8"
      ~note:
        "100 kB exponential flows, 0.5 s exponential off times, 1000-pkt DropTail.\n\
         Paper shape: RemyCCs define the efficient frontier; Vegas lowest delay &\n\
         throughput; Cubic most throughput-hungry of the TCPs; XCP/sfqCoDel between."
      ~scenario ~schemes:(standard_schemes ()) ~sigma:1.
  in
  (* The paper's Section 1 table quotes one RemyCC against each scheme;
     print the two ends of our frontier. *)
  summary_table fmt summaries ~reference:"Remy d=0.1";
  summary_table fmt summaries ~reference:"Remy d=10";
  scatter_artifact opts "fig4" summaries

let fig5 fmt opts =
  let scenario =
    Scenario.make
      ~service:(Remy_cc.Dumbbell.Rate_mbps 15.)
      ~n:12 ~rtt:0.150
      ~workload:(Workload.icsi ~mean_off:0.2)
      ~duration:opts.duration ~replications:opts.replications
      ~base_seed:opts.base_seed ()
  in
  let summaries =
    throughput_delay_experiment fmt
      ~title:"Figure 5: dumbbell, n = 12, ICSI empirical flow lengths"
      ~note:
        "Heavy-tailed (Fig. 3) transfers, 0.2 s off times; 1/2-sigma ellipses\n\
         because of the sending distribution's variance.  Paper shape: RemyCCs\n\
         again mark the efficient frontier."
      ~scenario ~schemes:(standard_schemes ()) ~sigma:0.5
  in
  scatter_artifact opts "fig5" summaries

let cellular_experiment fmt opts ~id ~title ~trace_name ~profile ~n =
  let trace = load_trace opts trace_name profile in
  let scenario =
    Scenario.make
      ~service:(Remy_cc.Dumbbell.Trace trace)
      ~n ~rtt:0.050
      ~workload:(Workload.by_bytes ~mean_bytes:100e3 ~mean_off:0.5)
      ~duration:opts.duration ~replications:opts.replications
      ~base_seed:opts.base_seed ()
  in
  let summaries =
    throughput_delay_experiment fmt ~title
      ~note:
        (Printf.sprintf
           "Trace-driven cellular downlink (synthetic stand-in, mean %.1f Mbps; see\n\
            DESIGN.md substitutions).  Model mismatch probe: the trace's rate range\n\
            lies outside the RemyCC design range.  Paper shape: RemyCCs stay on or\n\
            near the frontier at n <= 8; XCP gets the long-run mean rate (footnote 6)."
           (Cell_trace.mean_rate_mbps trace))
      ~scenario ~schemes:(standard_schemes ()) ~sigma:1.
  in
  summary_table fmt summaries ~reference:"Remy d=0.1";
  summary_table fmt summaries ~reference:"Remy d=10";
  scatter_artifact opts id summaries

let fig7 fmt opts =
  cellular_experiment fmt opts ~id:"fig7"
    ~title:"Figure 7 + Section 1 LTE table: Verizon-like trace, n = 4"
    ~trace_name:"verizon-lte" ~profile:Cell_trace.verizon_like ~n:4

let fig8 fmt opts =
  cellular_experiment fmt opts ~id:"fig8"
    ~title:"Figure 8: Verizon-like trace, n = 8" ~trace_name:"verizon-lte"
    ~profile:Cell_trace.verizon_like ~n:8

let fig9 fmt opts =
  cellular_experiment fmt opts ~id:"fig9" ~title:"Figure 9: AT&T-like trace, n = 4"
    ~trace_name:"att-lte" ~profile:Cell_trace.att_like ~n:4

(* --- Fig. 6: sequence plot ------------------------------------------- *)

let fig6_one fmt opts ~id ~label tree =
  Format.fprintf fmt "@.--- %s ---@." label;
  let t_depart = opts.duration /. 2. in
  let series = ref [] in
  let flows =
    [|
      {
        Remy_cc.Dumbbell.cc = Remy.Remycc.factory tree;
        rtt = 0.150;
        workload = Workload.saturating;
        start = `Immediate;
      };
      {
        Remy_cc.Dumbbell.cc = Remy.Remycc.factory tree;
        rtt = 0.150;
        workload =
          {
            Workload.off_time = Dist.Constant infinity;
            on_spec = Workload.By_time (Dist.Constant t_depart);
          };
        start = `Immediate;
      };
    |]
  in
  let _ =
    Remy_cc.Topology.run
      ~delivery_hook:(fun ~flow ~now ~seq ->
        if flow = 0 then series := (now, seq) :: !series)
      (Remy_cc.Topology.dumbbell
         {
           Remy_cc.Dumbbell.service = Remy_cc.Dumbbell.Rate_mbps 15.;
           qdisc = Remy_cc.Dumbbell.Droptail 1000;
           flows;
           duration = opts.duration;
           seed = opts.base_seed;
           min_rto = Remy_cc.Dumbbell.default_min_rto;
         })
  in
  let series = Array.of_list (List.rev !series) in
  let rate_between t0 t1 =
    let points =
      Array.of_list
        (List.filter
           (fun (t, _) -> t >= t0 && t <= t1)
           (Array.to_list (Array.map (fun (t, s) -> (t, float_of_int s)) series)))
    in
    if Array.length points < 2 then 0. else fst (Stats.linear_fit points)
  in
  let margin = 2. in
  let before = rate_between (t_depart -. (opts.duration /. 4.)) (t_depart -. 0.5) in
  let after = rate_between (t_depart +. margin) (t_depart +. (opts.duration /. 4.)) in
  (* Decimated sequence plot samples for plotting. *)
  Format.fprintf fmt "%10s %12s@." "time (s)" "seq (pkts)";
  let step = max 1 (Array.length series / 20) in
  Array.iteri
    (fun i (t, s) -> if i mod step = 0 then Format.fprintf fmt "%10.2f %12d@." t s)
    series;
  let link_pps = Link.pps_of_mbps 15. in
  Format.fprintf fmt
    "@.sending rate before departure: %.0f pkts/s (%.2f of link)@." before
    (before /. link_pps);
  Format.fprintf fmt "sending rate after departure:  %.0f pkts/s (%.2f of link)@."
    after (after /. link_pps);
  Format.fprintf fmt "rate ratio after/before: %.2fx (paper: ~2x)@."
    (if before > 0. then after /. before else nan);
  artifact opts id
    ~header:[ "time_s"; "seq" ]
    (Array.to_list
       (Array.map
          (fun (t, s) -> [ Printf.sprintf "%.4f" t; string_of_int s ])
          series))

let fig6 fmt opts =
  header fmt "Figure 6: RemyCC rate doubling when a competitor departs"
    "Two RemyCC flows share a 15 Mbps link; the competitor stops midway.\n\
     Paper shape: the surviving flow moves from ~1/2 link speed to ~full\n\
     link speed shortly after the departure.  Shown for the general\n\
     (delta = 1) table and for the link-specific 1x table.  Note: small\n\
     general tables (ours have ~8 rules vs the paper's 162-204) may cap\n\
     the window below the solo-flow BDP, muting the doubling; the 1x\n\
     table shows the paper's behavior exactly.";
  fig6_one fmt opts ~id:"fig6_general" ~label:"general RemyCC (delta = 1)"
    (Tables.tree Tables.delta1);
  fig6_one fmt opts ~id:"fig6_onex"
    ~label:"link-specific RemyCC (1x, 15 Mbps known a priori)"
    (Tables.tree Tables.onex)

(* --- Fig. 10: RTT unfairness ----------------------------------------- *)

let fig10 fmt opts =
  header fmt "Figure 10: RTT unfairness"
    "Four senders at RTT 50/100/150/200 ms share a 10 Mbps link (ICSI flows,\n\
     0.2 s off).  Normalized throughput share per RTT, with standard error.\n\
     Paper shape: RemyCCs are markedly flatter (fairer) than Cubic/sfqCoDel.";
  let rtts = [| 0.050; 0.100; 0.150; 0.200 |] in
  let scenario =
    Scenario.make
      ~service:(Remy_cc.Dumbbell.Rate_mbps 10.)
      ~n:4 ~rtt:0.1 ~rtts
      ~workload:(Workload.icsi ~mean_off:0.2)
      ~duration:opts.duration ~replications:opts.replications
      ~base_seed:opts.base_seed ()
  in
  let schemes = Schemes.cubic_sfqcodel :: delta_schemes () in
  Format.fprintf fmt "%-16s %22s %22s %22s %22s@." "scheme" "RTT 50ms" "100ms"
    "150ms" "200ms";
  let rows = ref [] in
  List.iter
    (fun scheme ->
      let s = Scenario.run_scheme scenario scheme in
      (* Per replication: each flow's share of the total, normalized so a
         fair split is 1.0 (multiply by n). *)
      let shares =
        Array.map
          (fun flows ->
            let row = Array.map (fun f -> f.Metrics.throughput_mbps) flows in
            let total = Array.fold_left ( +. ) 0. row in
            if total <= 0. then Array.map (fun _ -> nan) row
            else Array.map (fun t -> 4. *. t /. total) row)
          s.Scenario.flows
      in
      Format.fprintf fmt "%-16s" s.Scenario.scheme;
      for i = 0 to 3 do
        let col =
          Array.of_list
            (List.filter (fun x -> not (Float.is_nan x))
               (Array.to_list (Array.map (fun r -> r.(i)) shares)))
        in
        if Array.length col = 0 then Format.fprintf fmt "%22s" "-"
        else begin
          Format.fprintf fmt "%14.2f +/- %.2f" (Stats.mean col)
            (Stats.standard_error col);
          rows :=
            [
              s.Scenario.scheme;
              Printf.sprintf "%.0f" (rtts.(i) *. 1e3);
              Printf.sprintf "%.4f" (Stats.mean col);
              Printf.sprintf "%.4f" (Stats.standard_error col);
            ]
            :: !rows
        end
      done;
      Format.fprintf fmt "@.")
    schemes;
  artifact opts "fig10"
    ~header:[ "scheme"; "rtt_ms"; "norm_share_mean"; "norm_share_sem" ]
    (List.rev !rows)

(* --- Section 5.5: datacenter table ----------------------------------- *)

let tbl_datacenter fmt opts =
  header fmt "Section 5.5 table: datacenter, DCTCP vs RemyCC (1/10 scale)"
    "64 senders, 1 Gbps (paper: 10 Gbps; scaled 10x down with transfer sizes,\n\
     see DESIGN.md), 4 ms RTT, exponential 2 MB transfers, 0.1 s off times.\n\
     DCTCP runs over threshold-marking RED (K = 65); RemyCC over 1000-pkt\n\
     DropTail.  Paper shape: comparable throughput, RemyCC's RTTs higher\n\
     because DropTail lets queues grow.";
  let duration = Float.min opts.duration 20. in
  let replications = max 2 (opts.replications / 2) in
  let scenario =
    Scenario.make
      ~service:(Remy_cc.Dumbbell.Rate_mbps 1000.)
      ~n:64 ~rtt:0.004
      ~workload:(Workload.by_bytes ~mean_bytes:2e6 ~mean_off:0.1)
      ~duration ~replications ~base_seed:opts.base_seed ()
  in
  let dc_remy = Tables.scheme Tables.datacenter in
  Format.fprintf fmt "%-20s %10s %10s %12s %12s@." "scheme" "tput mean"
    "tput med" "rtt mean" "rtt med";
  Format.fprintf fmt "%-20s %10s %10s %12s %12s@." "" "(Mbps)" "(Mbps)" "(ms)" "(ms)";
  List.iter
    (fun scheme ->
      let s = Scenario.run_scheme scenario scheme in
      let tputs = Array.map (fun p -> p.Scenario.tput_mbps) s.Scenario.points in
      let rtts =
        Array.map (fun p -> p.Scenario.qdelay_ms +. 4.) s.Scenario.points
      in
      if Array.length tputs > 0 then
        Format.fprintf fmt "%-20s %10.1f %10.1f %12.2f %12.2f@." s.Scenario.scheme
          (Stats.mean tputs) (Stats.median tputs) (Stats.mean rtts)
          (Stats.median rtts)
      else Format.fprintf fmt "%-20s (no flows scored)@." s.Scenario.scheme)
    [ Schemes.dctcp; dc_remy ]

(* --- Section 5.6: competing protocols -------------------------------- *)

let competing_run opts ~remy_tree ~other_factory ~workload ~seed =
  (* One RemyCC flow vs one [other] flow on the paper's 15 Mbps / 150 ms
     bottleneck; returns (remy_tputs, other_tputs) across replications. *)
  let remy_t = ref [] and other_t = ref [] in
  for rep = 0 to opts.replications - 1 do
    let flows =
      [|
        {
          Remy_cc.Dumbbell.cc = Remy.Remycc.factory remy_tree;
          rtt = 0.150;
          workload;
          start = `Off_draw;
        };
        {
          Remy_cc.Dumbbell.cc = other_factory;
          rtt = 0.150;
          workload;
          start = `Off_draw;
        };
      |]
    in
    let r =
      Remy_cc.Topology.run
        (Remy_cc.Topology.dumbbell
           {
             Remy_cc.Dumbbell.service = Remy_cc.Dumbbell.Rate_mbps 15.;
             qdisc = Remy_cc.Dumbbell.Droptail 1000;
             flows;
             duration = opts.duration;
             seed = seed + rep;
             min_rto = Remy_cc.Dumbbell.default_min_rto;
           })
    in
    let tput i = r.Remy_cc.Topology.flows.(i).Metrics.throughput_mbps in
    if r.Remy_cc.Topology.flows.(0).Metrics.on_time > 0. then
      remy_t := tput 0 :: !remy_t;
    if r.Remy_cc.Topology.flows.(1).Metrics.on_time > 0. then
      other_t := tput 1 :: !other_t
  done;
  (Array.of_list !remy_t, Array.of_list !other_t)

let tbl_competing fmt opts =
  header fmt "Section 5.6 tables: competing with Compound and Cubic"
    "One RemyCC (coexistence-trained, RTT design range 100 ms - 10 s) shares\n\
     the 15 Mbps / 150 ms bottleneck with one conventional flow.  Paper shape:\n\
     RemyCC wins at low duty cycles (it grabs spare bandwidth faster); at high\n\
     duty cycles the buffer-filling protocol takes the larger share.";
  let tree = Tables.tree Tables.coexist in
  Format.fprintf fmt "@.vs Compound, ICSI flows, varying mean off time:@.";
  Format.fprintf fmt "%-14s %18s %18s@." "mean off" "RemyCC tput (sd)"
    "Compound tput (sd)";
  List.iteri
    (fun i off ->
      let remy, other =
        competing_run opts ~remy_tree:tree
          ~other_factory:(Remy_cc.Compound.factory ())
          ~workload:(Workload.icsi ~mean_off:off)
          ~seed:(opts.base_seed + (1000 * i))
      in
      Format.fprintf fmt "%11.0f ms %11.2f (%.2f) %11.2f (%.2f)@." (off *. 1e3)
        (Stats.mean remy) (Stats.stddev remy) (Stats.mean other)
        (Stats.stddev other))
    [ 0.200; 0.100; 0.010 ];
  Format.fprintf fmt "@.vs Cubic, exponential flows (off 0.5 s), varying mean size:@.";
  Format.fprintf fmt "%-14s %18s %18s@." "mean size" "RemyCC tput (sd)"
    "Cubic tput (sd)";
  List.iteri
    (fun i size ->
      let remy, other =
        competing_run opts ~remy_tree:tree
          ~other_factory:(Remy_cc.Cubic.factory ())
          ~workload:(Workload.by_bytes ~mean_bytes:size ~mean_off:0.5)
          ~seed:(opts.base_seed + 5000 + (1000 * i))
      in
      Format.fprintf fmt "%11.0f kB %11.2f (%.2f) %11.2f (%.2f)@." (size /. 1e3)
        (Stats.mean remy) (Stats.stddev remy) (Stats.mean other)
        (Stats.stddev other))
    [ 100e3; 1e6 ]

(* --- Fig. 11: sensitivity to prior knowledge ------------------------- *)

let fig11 fmt opts =
  header fmt "Figure 11: how helpful is prior knowledge about the network?"
    "Two senders, 150 ms RTT, on/off traffic; link speed swept across\n\
     4.74-47.4 Mbps.  Score: log(normalized tput) - log(normalized delay).\n\
     Paper shape: the 1x RemyCC peaks at its design point (15 Mbps) and falls\n\
     off; the 10x RemyCC beats Cubic/sfqCoDel across its design decade but\n\
     deteriorates outside it.";
  let onex = Tables.scheme Tables.onex in
  let tenx = Tables.scheme Tables.tenx in
  let objective = Remy.Objective.proportional ~delta:1.0 in
  let speeds = [ 4.74; 6.7; 9.5; 13.4; 15.0; 19.0; 26.8; 37.9; 47.4 ] in
  Format.fprintf fmt "%12s %14s %14s %16s@." "link (Mbps)" "Remy 1x" "Remy 10x"
    "Cubic/sfqCoDel";
  let rows = ref [] in
  List.iter
    (fun mbps ->
      let scenario =
        Scenario.make
          ~service:(Remy_cc.Dumbbell.Rate_mbps mbps)
          ~n:2 ~rtt:0.150
          ~workload:(Workload.by_time ~mean_on:1.0 ~mean_off:1.0)
          ~duration:opts.duration
          ~replications:(max 2 (opts.replications / 2))
          ~base_seed:opts.base_seed ()
      in
      let score scheme =
        let s = Scenario.run_scheme scenario scheme in
        if Array.length s.Scenario.points = 0 then nan
        else
          Stats.mean
            (Array.map
               (fun p ->
                 Remy.Objective.normalized_score objective
                   ~throughput_mbps:p.Scenario.tput_mbps
                   ~mean_rtt_ms:(p.Scenario.qdelay_ms +. 150.)
                   ~fair_share_mbps:(mbps /. 2.) ~min_rtt_ms:150.)
               s.Scenario.points)
      in
      let s1 = score onex and s10 = score tenx and sc = score Schemes.cubic_sfqcodel in
      rows :=
        [
          Printf.sprintf "%.2f" mbps;
          Printf.sprintf "%.4f" s1;
          Printf.sprintf "%.4f" s10;
          Printf.sprintf "%.4f" sc;
        ]
        :: !rows;
      Format.fprintf fmt "%12.2f %14.3f %14.3f %16.3f@." mbps s1 s10 sc)
    speeds;
  artifact opts "fig11"
    ~header:[ "link_mbps"; "remy_1x"; "remy_10x"; "cubic_sfqcodel" ]
    (List.rev !rows)

(* --- beyond-paper ablations ------------------------------------------ *)

let ablation_loss fmt opts =
  header fmt "Ablation: stochastic (non-congestive) loss"
    "Section 4.1: RemyCCs avoid loss as a congestion signal, so random\n\
     (wireless-style) loss should cost them only the lost goodput, while\n\
     loss-based TCPs misread it as congestion and back off.  Two senders,\n\
     15 Mbps / 150 ms, on/off traffic; median per-sender throughput (Mbps).";
  let remy =
    Schemes.remy ~name:"Remy d=1"
      (Tables.tree Tables.delta1)
  in
  let schemes = [ Schemes.newreno; Schemes.cubic; remy ] in
  Format.fprintf fmt "%-12s" "loss rate";
  List.iter (fun s -> Format.fprintf fmt "%14s" s.Schemes.name) schemes;
  Format.fprintf fmt "@.";
  let rows = ref [] in
  List.iter
    (fun loss ->
      let scenario =
        Scenario.make ~loss
          ~service:(Remy_cc.Dumbbell.Rate_mbps 15.)
          ~n:2 ~rtt:0.150
          ~workload:(Workload.by_time ~mean_on:2.0 ~mean_off:1.0)
          ~duration:opts.duration ~replications:opts.replications
          ~base_seed:opts.base_seed ()
      in
      Format.fprintf fmt "%11.1f%%" (loss *. 100.);
      List.iter
        (fun scheme ->
          let s = Scenario.run_scheme scenario scheme in
          (* Every sender that switched on counts, also one the loss
             starved of any delivery (the summary's points skip it). *)
          let tputs =
            List.filter_map
              (fun f ->
                if f.Metrics.on_time > 0. then Some f.Metrics.throughput_mbps
                else None)
              (List.concat_map Array.to_list (Array.to_list s.Scenario.flows))
          in
          let med =
            match tputs with
            | [] -> nan
            | l -> Stats.median (Array.of_list l)
          in
          rows :=
            [
              Printf.sprintf "%.4f" loss;
              scheme.Schemes.name;
              Printf.sprintf "%.4f" med;
            ]
            :: !rows;
          Format.fprintf fmt "%14.2f" med)
        schemes;
      Format.fprintf fmt "@.")
    [ 0.0; 0.001; 0.01; 0.03 ];
  artifact opts "ablation_loss"
    ~header:[ "loss_rate"; "scheme"; "median_tput_mbps" ]
    (List.rev !rows)

let ablation_signals fmt opts =
  header fmt "Ablation: which memory signals matter?"
    "The delta = 1 RemyCC re-run with each of its three congestion signals\n\
     (Section 4.1) pinned to zero, on the Fig. 4 dumbbell.  A signal whose\n\
     removal hurts was load-bearing for this table.";
  let tree = Tables.tree Tables.delta1 in
  let scenario =
    Scenario.make
      ~service:(Remy_cc.Dumbbell.Rate_mbps 15.)
      ~n:8 ~rtt:0.150
      ~workload:(Workload.by_bytes ~mean_bytes:100e3 ~mean_off:0.5)
      ~duration:opts.duration ~replications:opts.replications
      ~base_seed:opts.base_seed ()
  in
  let variant name mask =
    {
      Schemes.name;
      factory = Remy.Remycc.factory ~mask tree;
      qdisc = Schemes.Q_droptail;
      (* Masked RemyCCs must not be swapped for the unmasked fleet. *)
      tree = None;
      idle_restart_s = None;
    }
  in
  Format.fprintf fmt "%-24s %10s %12s@." "variant" "tput" "qdelay (ms)";
  List.iter
    (fun scheme ->
      let s = Scenario.run_scheme scenario scheme in
      Format.fprintf fmt "%-24s %10.2f %12.2f@." s.Scenario.scheme
        s.Scenario.median_tput s.Scenario.median_qdelay)
    [
      variant "all signals" Remy.Remycc.all_signals;
      variant "no ack_ewma"
        { Remy.Remycc.all_signals with Remy.Remycc.use_ack_ewma = false };
      variant "no send_ewma"
        { Remy.Remycc.all_signals with Remy.Remycc.use_send_ewma = false };
      variant "no rtt_ratio"
        { Remy.Remycc.all_signals with Remy.Remycc.use_rtt_ratio = false };
    ]

let all =
  [
    ("fig3", fun fmt (_ : opts) -> fig3 fmt);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("tbl_datacenter", tbl_datacenter);
    ("tbl_competing", tbl_competing);
    ("fig11", fig11);
    ("ablation_loss", ablation_loss);
    ("ablation_signals", ablation_signals);
  ]
