open Remy_sim
open Remy_util
open Remy_cc
module Record = Remy_obs.Record

type opts = { replications : int; duration : float; base_seed : int; progress : string -> unit }

let quick = { replications = 6; duration = 40.; base_seed = 7000; progress = ignore }
let full = { quick with replications = 64; duration = 100. }

type figure = { run : opts -> Record.t list; print : Format.formatter -> Record.t list -> unit }

(* --- rows ------------------------------------------------------------ *)

(* A figure's rows are flat records whose "row" field names the
   sub-table they belong to; the printers read them back by tag. *)
let row tag fields = ("row", Record.Str tag) :: fields
let fl key x = (key, Record.Float x)
let st key s = (key, Record.Str s)
let tagged tag = List.filter (fun r -> Record.find "row" r = Some (Record.Str tag))

let get conv key r =
  match Option.bind (Record.find key r) conv with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Figures: row has no field %S" key)

let num = get Record.to_float
let int = get Record.to_int
let str = get Record.to_str

(* Runs of consecutive rows that agree on [key], in order. *)
let groups key rows =
  List.fold_right
    (fun r acc ->
      let k = Record.find key r in
      match acc with
      | (k', rs) :: rest when k' = k -> (k, r :: rs) :: rest
      | _ -> (k, [ r ]) :: acc)
    rows []

let header fmt title note = Format.fprintf fmt "@.==== %s ====@.%s@.@." title note

(* The paper's dumbbell at [opts]' duration, replications and seeds. *)
let dumbbell opts =
  Scenario.make ~duration:opts.duration ~replications:opts.replications
    ~base_seed:opts.base_seed

let load_trace opts name profile =
  let path = Filename.concat (Tables.data_dir ()) (name ^ ".trace") in
  match Cell_trace.load path with
  | Ok t -> t
  | Error _ ->
    opts.progress
      (Printf.sprintf "trace %s missing; synthesizing (bin/gen_traces regenerates it)" path);
    let t = Cell_trace.synthesize ~name (Prng.create 20130812) profile ~duration:300. in
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Cell_trace.save path t;
    t

(* --- Fig. 3 ---------------------------------------------------------- *)

let fig3 =
  let run (_ : opts) =
    let rng = Prng.create 3 and n = 100_000 in
    let samples = Array.init n (fun _ -> Dist.pareto_icsi rng -. 16384.) in
    Array.sort Float.compare samples;
    List.map
      (fun x ->
        let count = Array.fold_left (fun c s -> if s <= x then c + 1 else c) 0 samples in
        row "cdf"
          [ fl "bytes" x; fl "empirical" (float_of_int count /. float_of_int n);
            fl "pareto_fit" (Dist.icsi_cdf x) ])
      [ 150.; 300.; 1e3; 1e4; 1e5; 1e6; 1e7 ]
    @ [ row "median" [ fl "bytes" (Stats.median samples) ] ]
  in
  let print fmt rows =
    header fmt "Figure 3: ICSI flow-length distribution"
      "Empirical CDF of 100k draws vs the paper's Pareto(x+40) fit (Xm=147, alpha=0.5).\n\
       The generator adds the 16 KiB evaluation floor, so compare after removing it.";
    Format.fprintf fmt "%12s %12s %12s@." "bytes" "empirical" "Pareto fit";
    List.iter
      (fun r ->
        Format.fprintf fmt "%12.0f %12.4f %12.4f@." (num "bytes" r) (num "empirical" r)
          (num "pareto_fit" r))
      (tagged "cdf" rows);
    Format.fprintf fmt
      "@.shape check: heavy tail (no finite mean); median ~ %.0f bytes (paper: Xm*4-40 = 548)@."
      (num "bytes" (List.hd (tagged "median" rows)))
  in
  { run; print }

(* --- throughput-delay experiments (Figs. 4, 5, 7, 8, 9) -------------- *)

let delta_schemes () =
  List.map (fun spec -> Tables.scheme spec) Tables.[ delta01; delta1; delta10 ]

(* One "medians" row per scheme, with its [sigma]-scaled ellipse when
   it has one, then one "points" row per scored flow. *)
let summary_rows ~sigma summaries =
  List.map
    (fun (s : Scenario.summary) ->
      row "medians"
        ([ st "scheme" s.scheme; fl "median_tput_mbps" s.median_tput;
           fl "median_qdelay_ms" s.median_qdelay; fl "sigma" sigma ]
        @
        match s.ellipse with
        | None -> []
        | Some e ->
          let e = Ellipse.scale e sigma in
          [ fl "ellipse_major" e.major; fl "ellipse_minor" e.minor;
            fl "ellipse_angle_deg" (e.angle *. 180. /. Float.pi) ]))
    summaries
  @ List.concat_map
      (fun (s : Scenario.summary) ->
        Array.to_list s.points
        |> List.map (fun (p : Scenario.point) ->
               row "points" [ st "scheme" s.scheme; fl "tput_mbps" p.tput_mbps;
                              fl "qdelay_ms" p.qdelay_ms ]))
      summaries

(* The Section 1 table: [reference]'s median speedup and delay
   reduction against every other scheme, from the "medians" rows. *)
let summary_table fmt medians ~reference =
  match List.find_opt (fun r -> str "scheme" r = reference) medians with
  | None -> ()
  | Some remy ->
    Format.fprintf fmt
      "@.Section-1-style summary (median speedup and delay reduction of %s):@." reference;
    Format.fprintf fmt "%-16s %14s %16s@." "protocol" "median speedup" "delay reduction";
    List.iter
      (fun r ->
        let tput = num "median_tput_mbps" r in
        if str "scheme" r <> reference && tput > 0. then
          Format.fprintf fmt "%-16s %13.2fx %15.2fx@." (str "scheme" r)
            (num "median_tput_mbps" remy /. tput)
            (num "median_qdelay_ms" r /. Float.max 1e-9 (num "median_qdelay_ms" remy)))
      medians

(* Every Fig. 4 scheme on [scenario opts], which also gives any rows
   that come before the summaries ([note] may read them).  The
   Section 1 table quotes one RemyCC against each scheme; [speedups]
   prints it for the two ends of our frontier. *)
let throughput_delay ~title ~note ~sigma ~speedups scenario =
  let run opts =
    let pre, scenario = scenario opts in
    pre
    @ summary_rows ~sigma
        (List.map (Scenario.run_scheme scenario) (Schemes.fig4_baselines @ delta_schemes ()))
  in
  let print fmt rows =
    header fmt title (note rows);
    Format.fprintf fmt "%-16s %8s %10s   %g-sigma ellipse (delay x tput)@." "scheme" "tput"
      "qdelay" sigma;
    Format.fprintf fmt "%-16s %8s %10s@." "" "(Mbps)" "(ms)";
    let medians = tagged "medians" rows in
    List.iter
      (fun r ->
        Format.fprintf fmt "%-16s %8.3f %10.2f   %s@." (str "scheme" r)
          (num "median_tput_mbps" r) (num "median_qdelay_ms" r)
          (match Record.find "ellipse_major" r with
          | None -> "-"
          | Some _ ->
            Printf.sprintf "%.2f x %.2f at %.0f deg" (num "ellipse_major" r)
              (num "ellipse_minor" r) (num "ellipse_angle_deg" r)))
      medians;
    if speedups then begin
      summary_table fmt medians ~reference:"Remy d=0.1";
      summary_table fmt medians ~reference:"Remy d=10"
    end
  in
  { run; print }

let fig4 =
  throughput_delay ~title:"Figure 4 + Section 1 table: dumbbell, 15 Mbps, n = 8"
    ~note:(fun _ ->
      "100 kB exponential flows, 0.5 s exponential off times, 1000-pkt DropTail.\n\
       Paper shape: RemyCCs define the efficient frontier; Vegas lowest delay &\n\
       throughput; Cubic most throughput-hungry of the TCPs; XCP/sfqCoDel between.")
    ~sigma:1. ~speedups:true
    (fun opts ->
      ( [], dumbbell opts ~service:(Topology.Rate_mbps 15.) ~n:8 ~rtt:0.150
              ~workload:(Workload.by_bytes ~mean_bytes:100e3 ~mean_off:0.5) () ))

let fig5 =
  throughput_delay ~title:"Figure 5: dumbbell, n = 12, ICSI empirical flow lengths"
    ~note:(fun _ ->
      "Heavy-tailed (Fig. 3) transfers, 0.2 s off times; 1/2-sigma ellipses\n\
       because of the sending distribution's variance.  Paper shape: RemyCCs\n\
       again mark the efficient frontier.")
    ~sigma:0.5 ~speedups:false
    (fun opts ->
      ( [], dumbbell opts ~service:(Topology.Rate_mbps 15.) ~n:12 ~rtt:0.150
              ~workload:(Workload.icsi ~mean_off:0.2) () ))

(* A "trace" row carries the trace's mean rate, which the note quotes. *)
let cellular ~title ~trace_name ~profile ~n =
  throughput_delay ~title
    ~note:(fun rows ->
      Printf.sprintf
        "Trace-driven cellular downlink (synthetic stand-in, mean %.1f Mbps; see\n\
         DESIGN.md substitutions).  Model mismatch probe: the trace's rate range\n\
         lies outside the RemyCC design range.  Paper shape: RemyCCs stay on or\n\
         near the frontier at n <= 8; XCP gets the long-run mean rate (footnote 6)."
        (num "mean_rate_mbps" (List.hd (tagged "trace" rows))))
    ~sigma:1. ~speedups:true
    (fun opts ->
      let trace = load_trace opts trace_name profile in
      let mean = Cell_trace.mean_rate_mbps trace in
      ( [ row "trace" [ st "trace" trace_name; fl "mean_rate_mbps" mean ] ],
        dumbbell opts ~service:(Topology.Trace trace) ~n ~rtt:0.050
          ~workload:(Workload.by_bytes ~mean_bytes:100e3 ~mean_off:0.5) () ))

let fig7 =
  cellular ~title:"Figure 7 + Section 1 LTE table: Verizon-like trace, n = 4"
    ~trace_name:"verizon-lte" ~profile:Cell_trace.verizon_like ~n:4

let fig8 =
  cellular ~title:"Figure 8: Verizon-like trace, n = 8" ~trace_name:"verizon-lte"
    ~profile:Cell_trace.verizon_like ~n:8

let fig9 =
  cellular ~title:"Figure 9: AT&T-like trace, n = 4" ~trace_name:"att-lte"
    ~profile:Cell_trace.att_like ~n:4

(* --- Fig. 6: sequence plot ------------------------------------------- *)

let fig6_tables =
  [ (Tables.delta1, "general RemyCC (delta = 1)");
    (Tables.onex, "link-specific RemyCC (1x, 15 Mbps known a priori)") ]

(* One table's "series" rows (every delivery to the surviving flow)
   and its "rate" row (sending rate before and after the departure). *)
let fig6_rows opts (spec : Tables.spec) =
  let t_depart = opts.duration /. 2. in
  let series = ref [] in
  let config =
    Topology.dumbbell ~service:(Topology.Rate_mbps 15.) ~qdisc:(Topology.Droptail 1000)
      ~rtts:[| 0.150; 0.150 |] ~cc:(Remy.Remycc.factory (Tables.tree spec))
      ~workload:Workload.saturating ~start:`Immediate ~duration:opts.duration
      ~seed:opts.base_seed ()
  in
  (* The competitor sends for [t_depart] seconds, then leaves for good. *)
  config.flows.(1) <-
    { (config.flows.(1)) with
      workload =
        { off_time = Dist.Constant infinity; on_spec = By_time (Dist.Constant t_depart) } };
  ignore
    (Topology.run config ~delivery_hook:(fun ~flow ~now ~seq ->
         if flow = 0 then series := (now, seq) :: !series));
  let series = List.rev !series in
  let rate_between t0 t1 =
    let points =
      List.filter_map
        (fun (t, s) -> if t >= t0 && t <= t1 then Some (t, float_of_int s) else None)
        series
    in
    if List.compare_length_with points 2 < 0 then 0.
    else fst (Stats.linear_fit (Array.of_list points))
  in
  let margin = 2. and table = st "table" spec.table in
  List.map (fun (t, s) -> row "series" [ table; fl "time_s" t; ("seq", Int s) ]) series
  @ [ row "rate"
        [ table;
          fl "before_pps" (rate_between (t_depart -. (opts.duration /. 4.)) (t_depart -. 0.5));
          fl "after_pps" (rate_between (t_depart +. margin) (t_depart +. (opts.duration /. 4.)))
        ] ]

let fig6 =
  let run opts = List.concat_map (fun (spec, _) -> fig6_rows opts spec) fig6_tables in
  let print fmt rows =
    header fmt "Figure 6: RemyCC rate doubling when a competitor departs"
      "Two RemyCC flows share a 15 Mbps link; the competitor stops midway.\n\
       Paper shape: the surviving flow moves from ~1/2 link speed to ~full\n\
       link speed shortly after the departure.  Shown for the general\n\
       (delta = 1) table and for the link-specific 1x table.  Note: small\n\
       general tables (ours have ~8 rules vs the paper's 162-204) may cap\n\
       the window below the solo-flow BDP, muting the doubling; the 1x\n\
       table shows the paper's behavior exactly.";
    let link_pps = Link.pps_of_mbps 15. in
    List.iter
      (fun (_, rows) ->
        let table = str "table" (List.hd rows) in
        Format.fprintf fmt "@.--- %s ---@."
          (snd (List.find (fun ((s : Tables.spec), _) -> s.table = table) fig6_tables));
        (* Decimated sequence plot samples for plotting. *)
        Format.fprintf fmt "%10s %12s@." "time (s)" "seq (pkts)";
        let series = tagged "series" rows in
        let step = max 1 (List.length series / 20) in
        List.iteri
          (fun i r ->
            if i mod step = 0 then
              Format.fprintf fmt "%10.2f %12d@." (num "time_s" r) (int "seq" r))
          series;
        let rate = List.hd (tagged "rate" rows) in
        let before = num "before_pps" rate and after = num "after_pps" rate in
        Format.fprintf fmt "@.sending rate before departure: %.0f pkts/s (%.2f of link)@." before
          (before /. link_pps);
        Format.fprintf fmt "sending rate after departure:  %.0f pkts/s (%.2f of link)@." after
          (after /. link_pps);
        Format.fprintf fmt "rate ratio after/before: %.2fx (paper: ~2x)@."
          (if before > 0. then after /. before else nan))
      (groups "table" rows)
  in
  { run; print }

(* --- Fig. 10: RTT unfairness ----------------------------------------- *)

let fig10 =
  let rtts = [| 0.050; 0.100; 0.150; 0.200 |] in
  let run opts =
    let scenario =
      dumbbell opts ~service:(Topology.Rate_mbps 10.) ~n:4 ~rtt:0.1 ~rtts
        ~workload:(Workload.icsi ~mean_off:0.2) ()
    in
    List.concat_map
      (fun scheme ->
        let s = Scenario.run_scheme scenario scheme in
        List.init 4 (fun i ->
            (* Per replication: flow [i]'s share of the total, normalized
               so a fair split is 1.0 (multiply by n). *)
            let col =
              Array.of_list
                (List.filter_map
                   (fun (flows : Metrics.flow_summary array) ->
                     let total =
                       Array.fold_left (fun acc f -> acc +. f.Metrics.throughput_mbps) 0. flows
                     in
                     let x = 4. *. flows.(i).throughput_mbps /. total in
                     if total <= 0. || Float.is_nan x then None else Some x)
                   (Array.to_list s.flows))
            in
            row "share"
              (st "scheme" s.scheme :: fl "rtt_ms" (rtts.(i) *. 1e3)
               :: ("samples", Record.Int (Array.length col))
               :: (if Array.length col = 0 then []
                   else [ fl "share_mean" (Stats.mean col);
                          fl "share_se" (Stats.standard_error col) ]))))
      (Schemes.cubic_sfqcodel :: delta_schemes ())
  in
  let print fmt rows =
    header fmt "Figure 10: RTT unfairness"
      "Four senders at RTT 50/100/150/200 ms share a 10 Mbps link (ICSI flows,\n\
       0.2 s off).  Normalized throughput share per RTT, with standard error.\n\
       Paper shape: RemyCCs are markedly flatter (fairer) than Cubic/sfqCoDel.";
    Format.fprintf fmt "%-16s %22s %22s %22s %22s@." "scheme" "RTT 50ms" "100ms" "150ms"
      "200ms";
    List.iter
      (fun (_, rows) ->
        Format.fprintf fmt "%-16s" (str "scheme" (List.hd rows));
        List.iter
          (fun r ->
            if int "samples" r = 0 then Format.fprintf fmt "%22s" "-"
            else Format.fprintf fmt "%14.2f +/- %.2f" (num "share_mean" r) (num "share_se" r))
          rows;
        Format.fprintf fmt "@.")
      (groups "scheme" (tagged "share" rows))
  in
  { run; print }

(* --- Section 5.5: datacenter table ----------------------------------- *)

let tbl_datacenter =
  let run opts =
    let scenario =
      Scenario.make ~service:(Topology.Rate_mbps 1000.) ~n:64 ~rtt:0.004
        ~workload:(Workload.by_bytes ~mean_bytes:2e6 ~mean_off:0.1)
        ~duration:(Float.min opts.duration 20.)
        ~replications:(max 2 (opts.replications / 2))
        ~base_seed:opts.base_seed ()
    in
    List.map
      (fun scheme ->
        let s = Scenario.run_scheme scenario scheme in
        let tputs = Array.map (fun (p : Scenario.point) -> p.tput_mbps) s.points in
        let rtts = Array.map (fun (p : Scenario.point) -> p.qdelay_ms +. 4.) s.points in
        row "scheme"
          (st "scheme" s.scheme :: ("samples", Record.Int (Array.length tputs))
           :: (if Array.length tputs = 0 then []
               else
                 [ fl "tput_mean_mbps" (Stats.mean tputs);
                   fl "tput_median_mbps" (Stats.median tputs); fl "rtt_mean_ms" (Stats.mean rtts);
                   fl "rtt_median_ms" (Stats.median rtts) ])))
      [ Schemes.dctcp; Tables.scheme Tables.datacenter ]
  in
  let print fmt rows =
    header fmt "Section 5.5 table: datacenter, DCTCP vs RemyCC (1/10 scale)"
      "64 senders, 1 Gbps (paper: 10 Gbps; scaled 10x down with transfer sizes,\n\
       see DESIGN.md), 4 ms RTT, exponential 2 MB transfers, 0.1 s off times.\n\
       DCTCP runs over threshold-marking RED (K = 65); RemyCC over 1000-pkt\n\
       DropTail.  Paper shape: comparable throughput, RemyCC's RTTs higher\n\
       because DropTail lets queues grow.";
    Format.fprintf fmt "%-20s %10s %10s %12s %12s@." "scheme" "tput mean" "tput med"
      "rtt mean" "rtt med";
    Format.fprintf fmt "%-20s %10s %10s %12s %12s@." "" "(Mbps)" "(Mbps)" "(ms)" "(ms)";
    List.iter
      (fun r ->
        if int "samples" r > 0 then
          Format.fprintf fmt "%-20s %10.1f %10.1f %12.2f %12.2f@." (str "scheme" r)
            (num "tput_mean_mbps" r) (num "tput_median_mbps" r) (num "rtt_mean_ms" r)
            (num "rtt_median_ms" r)
        else Format.fprintf fmt "%-20s (no flows scored)@." (str "scheme" r))
      (tagged "scheme" rows)
  in
  { run; print }

(* --- Section 5.6: competing protocols -------------------------------- *)

(* One RemyCC flow vs one [other] flow on the paper's 15 Mbps / 150 ms
   bottleneck: the mean and standard deviation of each flow's
   throughput over the replications in which it switched on. *)
let competing opts ~remy ~other ~workload ~seed =
  let scenario =
    Scenario.make ~service:(Topology.Rate_mbps 15.) ~n:2 ~rtt:0.150 ~workload
      ~duration:opts.duration ~replications:opts.replications ~base_seed:seed ()
  in
  let s = Scenario.run_population scenario [| remy; other |] in
  let tputs i =
    Array.of_list
      (Array.fold_left
         (fun acc (row : Metrics.flow_summary array) ->
           if row.(i).on_time > 0. then row.(i).throughput_mbps :: acc else acc)
         [] s.flows)
  in
  let remy = tputs 0 and other = tputs 1 in
  [ fl "remy_tput_mbps" (Stats.mean remy); fl "remy_sd_mbps" (Stats.stddev remy);
    fl "other_tput_mbps" (Stats.mean other); fl "other_sd_mbps" (Stats.stddev other) ]

let tbl_competing =
  let run opts =
    let coexist = Tables.scheme Tables.coexist in
    List.mapi
      (fun i off ->
        row "vs_compound"
          (fl "mean_off_s" off
          :: competing opts ~remy:coexist ~other:Schemes.compound
               ~workload:(Workload.icsi ~mean_off:off) ~seed:(opts.base_seed + (1000 * i))))
      [ 0.200; 0.100; 0.010 ]
    @ List.mapi
        (fun i size ->
          row "vs_cubic"
            (fl "mean_bytes" size
            :: competing opts ~remy:coexist ~other:Schemes.cubic
                 ~workload:(Workload.by_bytes ~mean_bytes:size ~mean_off:0.5)
                 ~seed:(opts.base_seed + 5000 + (1000 * i))))
        [ 100e3; 1e6 ]
  in
  let print fmt rows =
    header fmt "Section 5.6 tables: competing with Compound and Cubic"
      "One RemyCC (coexistence-trained, RTT design range 100 ms - 10 s) shares\n\
       the 15 Mbps / 150 ms bottleneck with one conventional flow.  Paper shape:\n\
       RemyCC wins at low duty cycles (it grabs spare bandwidth faster); at high\n\
       duty cycles the buffer-filling protocol takes the larger share.";
    let table tag ~title ~other ~x ~scaled ~unit =
      Format.fprintf fmt "@.%s:@." title;
      Format.fprintf fmt "%-14s %18s %18s@." x "RemyCC tput (sd)" (other ^ " tput (sd)");
      List.iter
        (fun r ->
          Format.fprintf fmt "%11.0f %s %11.2f (%.2f) %11.2f (%.2f)@." (scaled r) unit
            (num "remy_tput_mbps" r) (num "remy_sd_mbps" r) (num "other_tput_mbps" r)
            (num "other_sd_mbps" r))
        (tagged tag rows)
    in
    table "vs_compound" ~title:"vs Compound, ICSI flows, varying mean off time"
      ~other:"Compound" ~x:"mean off" ~unit:"ms"
      ~scaled:(fun r -> num "mean_off_s" r *. 1e3);
    table "vs_cubic" ~title:"vs Cubic, exponential flows (off 0.5 s), varying mean size"
      ~other:"Cubic" ~x:"mean size" ~unit:"kB" ~scaled:(fun r -> num "mean_bytes" r /. 1e3)
  in
  { run; print }

(* --- Fig. 11: sensitivity to prior knowledge ------------------------- *)

let fig11 =
  let run opts =
    let onex = Tables.scheme Tables.onex and tenx = Tables.scheme Tables.tenx in
    let objective = Remy.Objective.proportional ~delta:1.0 in
    List.map
      (fun mbps ->
        let scenario =
          Scenario.make ~service:(Topology.Rate_mbps mbps) ~n:2 ~rtt:0.150
            ~workload:(Workload.by_time ~mean_on:1.0 ~mean_off:1.0)
            ~duration:opts.duration
            ~replications:(max 2 (opts.replications / 2))
            ~base_seed:opts.base_seed ()
        in
        let score key scheme =
          let s = Scenario.run_scheme scenario scheme in
          fl key
            (if Array.length s.points = 0 then nan
             else
               Stats.mean
                 (Array.map
                    (fun (p : Scenario.point) ->
                      Remy.Objective.normalized_score objective ~throughput_mbps:p.tput_mbps
                        ~mean_rtt_ms:(p.qdelay_ms +. 150.) ~fair_share_mbps:(mbps /. 2.)
                        ~min_rtt_ms:150.)
                    s.points))
        in
        let s1 = score "remy_1x" onex in
        let s10 = score "remy_10x" tenx in
        let sc = score "cubic_sfqcodel" Schemes.cubic_sfqcodel in
        row "score" [ fl "link_mbps" mbps; s1; s10; sc ])
      [ 4.74; 6.7; 9.5; 13.4; 15.0; 19.0; 26.8; 37.9; 47.4 ]
  in
  let print fmt rows =
    header fmt "Figure 11: how helpful is prior knowledge about the network?"
      "Two senders, 150 ms RTT, on/off traffic; link speed swept across\n\
       4.74-47.4 Mbps.  Score: log(normalized tput) - log(normalized delay).\n\
       Paper shape: the 1x RemyCC peaks at its design point (15 Mbps) and falls\n\
       off; the 10x RemyCC beats Cubic/sfqCoDel across its design decade but\n\
       deteriorates outside it.";
    Format.fprintf fmt "%12s %14s %14s %16s@." "link (Mbps)" "Remy 1x" "Remy 10x"
      "Cubic/sfqCoDel";
    List.iter
      (fun r ->
        Format.fprintf fmt "%12.2f %14.3f %14.3f %16.3f@." (num "link_mbps" r)
          (num "remy_1x" r) (num "remy_10x" r) (num "cubic_sfqcodel" r))
      (tagged "score" rows)
  in
  { run; print }

(* --- beyond-paper ablations ------------------------------------------ *)

let ablation_loss =
  let run opts =
    let remy = Schemes.remy ~name:"Remy d=1" (Tables.tree Tables.delta1) in
    List.concat_map
      (fun loss ->
        let scenario =
          dumbbell opts ~loss ~service:(Topology.Rate_mbps 15.) ~n:2 ~rtt:0.150
            ~workload:(Workload.by_time ~mean_on:2.0 ~mean_off:1.0) ()
        in
        List.map
          (fun (scheme : Schemes.t) ->
            let s = Scenario.run_scheme scenario scheme in
            (* Every sender that switched on counts, also one the loss
               starved of any delivery (the summary's points skip it). *)
            let tputs =
              List.filter_map
                (fun (f : Metrics.flow_summary) ->
                  if f.on_time > 0. then Some f.throughput_mbps else None)
                (List.concat_map Array.to_list (Array.to_list s.flows))
            in
            row "median"
              [ fl "loss_rate" loss; st "scheme" scheme.name;
                fl "median_tput_mbps"
                  (if tputs = [] then nan else Stats.median (Array.of_list tputs)) ])
          [ Schemes.newreno; Schemes.cubic; remy ])
      [ 0.0; 0.001; 0.01; 0.03 ]
  in
  let print fmt rows =
    header fmt "Ablation: stochastic (non-congestive) loss"
      "Section 4.1: RemyCCs avoid loss as a congestion signal, so random\n\
       (wireless-style) loss should cost them only the lost goodput, while\n\
       loss-based TCPs misread it as congestion and back off.  Two senders,\n\
       15 Mbps / 150 ms, on/off traffic; median per-sender throughput (Mbps).";
    let by_loss = groups "loss_rate" (tagged "median" rows) in
    Format.fprintf fmt "%-12s" "loss rate";
    List.iter (fun r -> Format.fprintf fmt "%14s" (str "scheme" r)) (snd (List.hd by_loss));
    Format.fprintf fmt "@.";
    List.iter
      (fun (_, rows) ->
        Format.fprintf fmt "%11.1f%%" (num "loss_rate" (List.hd rows) *. 100.);
        List.iter (fun r -> Format.fprintf fmt "%14.2f" (num "median_tput_mbps" r)) rows;
        Format.fprintf fmt "@.")
      by_loss
  in
  { run; print }

let ablation_signals =
  let run opts =
    let tree = Tables.tree Tables.delta1 in
    let scenario =
      dumbbell opts ~service:(Topology.Rate_mbps 15.) ~n:8 ~rtt:0.150
        ~workload:(Workload.by_bytes ~mean_bytes:100e3 ~mean_off:0.5) ()
    in
    let variant name mask =
      { (Schemes.remy ~name tree) with factory = Remy.Remycc.factory ~mask tree }
    in
    let all = Remy.Remycc.all_signals in
    List.map
      (fun scheme ->
        let s = Scenario.run_scheme scenario scheme in
        row "variant"
          [ st "scheme" s.scheme; fl "median_tput_mbps" s.median_tput;
            fl "median_qdelay_ms" s.median_qdelay ])
      [ variant "all signals" all; variant "no ack_ewma" { all with use_ack_ewma = false };
        variant "no send_ewma" { all with use_send_ewma = false };
        variant "no rtt_ratio" { all with use_rtt_ratio = false } ]
  in
  let print fmt rows =
    header fmt "Ablation: which memory signals matter?"
      "The delta = 1 RemyCC re-run with each of its three congestion signals\n\
       (Section 4.1) pinned to zero, on the Fig. 4 dumbbell.  A signal whose\n\
       removal hurts was load-bearing for this table.";
    Format.fprintf fmt "%-24s %10s %12s@." "variant" "tput" "qdelay (ms)";
    List.iter
      (fun r ->
        Format.fprintf fmt "%-24s %10.2f %12.2f@." (str "scheme" r)
          (num "median_tput_mbps" r) (num "median_qdelay_ms" r))
      (tagged "variant" rows)
  in
  { run; print }

let all =
  [ ("fig3", fig3); ("fig4", fig4); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("tbl_datacenter", tbl_datacenter);
    ("tbl_competing", tbl_competing); ("fig11", fig11); ("ablation_loss", ablation_loss);
    ("ablation_signals", ablation_signals) ]
