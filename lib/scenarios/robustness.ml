open Remy_util

(* The robustness report behind `remy_inspect robustness-report`: the
   spirit of the paper's Fig. 6 ("how does performance degrade as the
   network leaves the design range?") applied to adversarial faults —
   sweep one fault axis at a time across intensities and report the
   objective-score degradation against the clean baseline, machine
   readable. *)

type level = { label : string; spec : Remy_faults.Spec.t }
type axis = { axis : string; levels : level list }

let spec s =
  match Remy_faults.Spec.parse s with
  | Ok t -> t
  | Error e -> invalid_arg (Printf.sprintf "Robustness: bad builtin spec %S: %s" s e)

let axis_of_strings axis levels =
  { axis; levels = List.map (fun (label, s) -> { label; spec = spec s }) levels }

(* Three intensities per axis, mild through severe.  Timed clauses
   start at 5 s (outages) and 10 s (rate cuts), so [run] needs a run
   longer than 10 s; the sweep's default duration is 30. *)
let default_axes =
  [
    axis_of_strings "outage"
      [
        ("mild", "outage:5+0.5+15");
        ("moderate", "outage:5+1+15");
        ("severe", "outage:5+2+15");
      ];
    axis_of_strings "burst-loss"
      [
        ("mild", "ge:0.005,0.3,0.1");
        ("moderate", "ge:0.01,0.2,0.3");
        ("severe", "ge:0.02,0.1,0.5");
      ];
    axis_of_strings "reorder"
      [
        ("mild", "reorder:0.01,0.002");
        ("moderate", "reorder:0.05,0.005");
        ("severe", "reorder:0.1,0.01");
      ];
    axis_of_strings "duplicate"
      [ ("mild", "dup:0.01"); ("moderate", "dup:0.05"); ("severe", "dup:0.1") ];
    axis_of_strings "corrupt"
      [
        ("mild", "corrupt:0.005");
        ("moderate", "corrupt:0.02");
        ("severe", "corrupt:0.05");
      ];
    axis_of_strings "rate-cut"
      [
        ("mild", "ratex:0.75@10");
        ("moderate", "ratex:0.5@10");
        ("severe", "ratex:0.25@10");
      ];
  ]

type cell = {
  cell_axis : string;
  level : string;
  spec_string : string;
  score : float;
  degradation : float;  (* baseline score - this score *)
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

(* Mean per-sender objective over the pooled points.  The sweep builds
   uniform-RTT dumbbells, so every point's propagation RTT is the
   scenario's broadcast one (a named topology's total propagation). *)
let score_of_summary objective (t : Scenario.t) (s : Scenario.summary) =
  let prop_s =
    match t.Scenario.network with
    | Scenario.Dumbbell { rtts; _ } -> Stats.mean rtts
    | Scenario.Topology { rtt; _ } -> rtt
  in
  let prop_ms = prop_s *. 1e3 in
  if Array.length s.Scenario.points = 0 then
    (* Nothing delivered at all (e.g. a blackout covering the run):
       score the floor, not 0, so "no throughput" ranks below any
       delivering cell. *)
    Remy.Objective.score objective ~throughput_mbps:0. ~mean_rtt_ms:prop_ms
  else
    Stats.mean
      (Array.map
         (fun (p : Scenario.point) ->
           Remy.Objective.score objective ~throughput_mbps:p.Scenario.tput_mbps
             ~mean_rtt_ms:(p.Scenario.qdelay_ms +. prop_ms))
         s.Scenario.points)

(* A level whose faults cannot act before [until] (no probabilistic
   clause, and every outage, rate or delay shift starts at or after it)
   would report the baseline's score as immunity. *)
let check_acts ~until axis l =
  let open Remy_faults.Spec in
  let links = l.spec.all :: List.map snd l.spec.per_link in
  let random f = f.ge <> None || f.reorder <> None || f.dup_prob > 0. || f.corrupt_prob > 0. in
  let at =
    List.fold_left Float.min infinity
      (List.concat_map
         (fun f ->
           List.map (fun o -> o.start_s) f.outages
           @ List.map (fun r -> r.rate_at_s) f.rate_shifts
           @ List.map (fun d -> d.delay_at_s) f.delay_shifts)
         links)
  in
  if at >= until && not (List.exists random links) then
    invalid_arg
      (Printf.sprintf "Robustness.run: axis %s level %s first acts at %g s, at or after the %g s \
                       run's end" axis l.label at until)

let run ?(axes = default_axes)
    ?(objective = Remy.Objective.proportional ~delta:1.0) (t : Scenario.t)
    (sch : Schemes.t) =
  List.iter (fun a -> List.iter (check_acts ~until:t.Scenario.duration a.axis) a.levels) axes;
  let clean = Scenario.run_scheme t sch in
  let baseline_score = score_of_summary objective t clean in
  let cells =
    List.concat_map
      (fun a ->
        List.map
          (fun l ->
            let s = Scenario.run_scheme ~faults:l.spec t sch in
            let score = score_of_summary objective t s in
            {
              cell_axis = a.axis;
              level = l.label;
              spec_string = Remy_faults.Spec.to_string l.spec;
              score;
              degradation = baseline_score -. score;
              mean_tput_mbps = s.Scenario.mean_tput;
              mean_rtt_ms = s.Scenario.mean_rtt_ms;
            })
          a.levels)
      axes
  in
  {
    scheme = sch.Schemes.name;
    objective;
    baseline_score;
    baseline_tput_mbps = clean.Scenario.mean_tput;
    baseline_rtt_ms = clean.Scenario.mean_rtt_ms;
    cells;
  }

let to_records r =
  let open Remy_obs.Record in
  (* One baseline record, then one per cell — flat, so the JSONL feeds
     straight into any Sink consumer. *)
  [
    ("row", Str "baseline");
    ("scheme", Str r.scheme);
    ("score", Float r.baseline_score);
    ("tput_mbps", Float r.baseline_tput_mbps);
    ("rtt_ms", Float r.baseline_rtt_ms);
  ]
  :: List.map
       (fun c ->
         [
           ("row", Str "cell");
           ("scheme", Str r.scheme);
           ("axis", Str c.cell_axis);
           ("level", Str c.level);
           ("spec", Str c.spec_string);
           ("score", Float c.score);
           ("degradation", Float c.degradation);
           ("tput_mbps", Float c.mean_tput_mbps);
           ("rtt_ms", Float c.mean_rtt_ms);
         ])
       r.cells

let pp fmt r =
  Format.fprintf fmt "@[<v>robustness of %s (objective %a)@," r.scheme
    Remy.Objective.pp r.objective;
  Format.fprintf fmt "baseline: score %8.4f  %8.3f Mbps  %8.2f ms@," r.baseline_score
    r.baseline_tput_mbps r.baseline_rtt_ms;
  Format.fprintf fmt "%-12s %-10s %10s %12s %10s %10s@," "axis" "level" "score"
    "degradation" "Mbps" "rtt ms";
  List.iter
    (fun c ->
      Format.fprintf fmt "%-12s %-10s %10.4f %12.4f %10.3f %10.2f@," c.cell_axis
        c.level c.score c.degradation c.mean_tput_mbps c.mean_rtt_ms)
    r.cells;
  Format.fprintf fmt "@]"
