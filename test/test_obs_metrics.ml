(* Observability acceptance tests: histogram quantiles stay within one
   bucket of the exact sorted quantile, merging is order-invariant, the
   span profiler survives nesting and exceptions, cross-domain merges are
   deterministic, manifests round-trip through the record codec, and —
   the load-bearing invariant — turning metrics and profiling on changes
   no simulation output. *)

open Remy_cc
open Remy_sim
module H = Remy_obs.Histogram
module P = Remy_obs.Profiler
module M = Remy_obs.Metrics
module C = Remy_obs.Counters
module R = Remy_obs.Record

(* --- histogram ----------------------------------------------------- *)

(* Exact quantile the histogram approximates: the sorted sample of rank
   [ceil (q * n)] (1-based, clamped to at least 1). *)
let exact_quantile samples q =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  a.(min (n - 1) (rank - 1))

let prop_quantile_error =
  QCheck.Test.make ~name:"quantile within one bucket of exact" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 200) pos_float)
    (fun raw ->
      (* Keep samples in the histogram's exact range so underflow and
         overflow buckets (tested separately) stay out of the way. *)
      let samples =
        List.map (fun v -> Float.max 1e-9 (Float.min 1000. (Float.abs v))) raw
      in
      let h = H.create () in
      List.iter (H.record h) samples;
      List.for_all
        (fun q ->
          let exact = exact_quantile samples q in
          let approx = H.quantile h q in
          exact <= approx && approx <= exact *. (1. +. H.relative_error))
        [ 0.5; 0.9; 0.99; 0.999 ])

let prop_merge_order_invariant =
  QCheck.Test.make ~name:"merge is order-invariant" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 100) pos_float)
        (list_of_size Gen.(int_range 0 100) pos_float))
    (fun (xs, ys) ->
      let fill vs =
        let h = H.create () in
        List.iter (H.record h) vs;
        h
      in
      let ab = fill xs and ba = fill ys in
      H.merge_into ~into:ab (fill ys);
      H.merge_into ~into:ba (fill xs);
      H.count ab = H.count ba
      && List.for_all
           (fun q ->
             let a = H.quantile ab q and b = H.quantile ba q in
             a = b || (Float.is_nan a && Float.is_nan b))
           [ 0.25; 0.5; 0.9; 0.99 ])

let test_histogram_edges () =
  let h = H.create () in
  Alcotest.(check bool) "empty quantile NaN" true (Float.is_nan (H.quantile h 0.5));
  Alcotest.(check bool) "empty max NaN" true (Float.is_nan (H.max_value h));
  H.record h Float.nan;
  H.record h 0.;
  H.record h (-3.);
  H.record h 1e-12 (* below 2^-30: underflow *);
  H.record h Float.infinity;
  H.record h 1e9 (* above 2^10: overflow *);
  Alcotest.(check int) "all six counted" 6 (H.count h);
  Alcotest.(check (float 0.)) "overflow reports range top" 1024. (H.max_value h);
  H.clear h;
  Alcotest.(check int) "clear empties" 0 (H.count h)

let test_summary_fields () =
  let h = H.create () in
  List.iter (H.record h) [ 0.001; 0.002; 0.004 ];
  let r = H.summary_fields ~prefix:"x" h in
  Alcotest.(check bool) "count field" true (R.find "x_count" r = Some (R.Int 3));
  Alcotest.(check bool) "p999 present" true (R.find "x_p999" r <> None)

(* --- profiler ------------------------------------------------------ *)

let with_profiler f =
  P.enable ();
  P.reset ();
  Fun.protect ~finally:P.disable f

let find_main path =
  match P.snapshot () with
  | main :: _ -> P.find main path
  | [] -> None

let test_span_nesting () =
  with_profiler @@ fun () ->
  P.span "outer" (fun () ->
      P.span "inner" ignore;
      P.span "inner" ignore);
  let outer = Option.get (find_main [ "outer" ]) in
  let inner = Option.get (find_main [ "outer"; "inner" ]) in
  Alcotest.(check int) "outer entered once" 1 outer.P.count;
  Alcotest.(check int) "inner entered twice" 2 inner.P.count;
  Alcotest.(check bool) "outer contains inner" true
    (P.total outer >= P.total inner);
  Alcotest.(check bool) "self time non-negative" true (P.self_s outer >= 0.)

let test_span_exception_unwind () =
  with_profiler @@ fun () ->
  (try P.span "a" (fun () -> P.span "b" (fun () -> raise Exit))
   with Exit -> ());
  (* The exception unwound through two open spans; both must be closed,
     so a fresh span lands under the root, not under "a" or "b". *)
  P.span "after" ignore;
  Alcotest.(check bool) "a recorded" true (find_main [ "a" ] <> None);
  Alcotest.(check bool) "b nested under a" true (find_main [ "a"; "b" ] <> None);
  Alcotest.(check bool) "stack rewound to root" true
    (find_main [ "after" ] <> None && find_main [ "a"; "after" ] = None)

let test_span_disabled_passthrough () =
  P.disable ();
  Alcotest.(check int) "value threads through" 42 (P.span "ghost" (fun () -> 42));
  with_profiler @@ fun () ->
  Alcotest.(check bool) "ghost span not recorded" true (find_main [ "ghost" ] = None)

let test_merge_deterministic () =
  with_profiler @@ fun () ->
  P.span "zeta" ignore;
  P.span "alpha" (fun () -> P.span "beta" ignore);
  let forest = P.snapshot () in
  let ab = P.merge ~name:"m" forest in
  let ba = P.merge ~name:"m" (List.rev forest) in
  Alcotest.(check string) "merge order irrelevant" (P.to_json [ ab ])
    (P.to_json [ ba ]);
  (* Children come out in sorted name order regardless of span order. *)
  let names =
    List.concat_map
      (fun root ->
        Hashtbl.fold (fun k _ acc -> k :: acc) root.P.children []
        |> List.sort compare)
      [ Option.get (find_main []) ]
  in
  Alcotest.(check (list string)) "sorted children" [ "alpha"; "zeta" ] names

let test_collapsed_format () =
  with_profiler @@ fun () ->
  P.span "work" (fun () -> P.span "step" ignore);
  let lines = String.split_on_char '\n' (P.to_collapsed (P.snapshot ())) in
  List.iter
    (fun line ->
      if line <> "" then
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "no weight in %S" line
        | Some i ->
          let weight = String.sub line (i + 1) (String.length line - i - 1) in
          Alcotest.(check bool)
            (Printf.sprintf "integer weight in %S" line)
            true
            (int_of_string_opt weight <> None))
    lines;
  Alcotest.(check bool) "stack path present" true
    (List.exists
       (fun l -> String.length l >= 15 && String.sub l 0 15 = "main;work;step ")
       lines)

(* --- metrics layer ------------------------------------------------- *)

let with_metrics f =
  M.enable ();
  M.reset ();
  Fun.protect ~finally:M.disable f

let test_metrics_disabled_noop () =
  M.disable ();
  M.reset ();
  M.record M.Sim_wall 0.5;
  Alcotest.(check int) "disabled record drops" 0 (H.count (M.merged M.Sim_wall))

let test_metrics_record_and_merge () =
  with_metrics @@ fun () ->
  for _ = 1 to 10 do
    M.record M.Queueing_delay 0.01
  done;
  M.record M.Sojourn 0.002;
  Alcotest.(check int) "ten delays" 10 (H.count (M.merged M.Queueing_delay));
  Alcotest.(check int) "one sojourn" 1 (H.count (M.merged M.Sojourn));
  let names = List.map fst (M.all_merged ()) in
  Alcotest.(check (list string)) "canonical order"
    [ "eval_round_s"; "queueing_delay_s"; "sim_wall_s"; "sojourn_s" ]
    names;
  let r = M.summary_fields () in
  Alcotest.(check bool) "only non-empty kinds summarized" true
    (R.find "h_queueing_delay_s_count" r = Some (R.Int 10)
    && R.find "h_sim_wall_s_count" r = None)

let test_metrics_cross_domain () =
  with_metrics @@ fun () ->
  M.record M.Eval_round 0.25;
  let worker n () =
    for _ = 1 to n do
      M.record M.Eval_round 0.125
    done
  in
  let d1 = Domain.spawn (worker 50) and d2 = Domain.spawn (worker 70) in
  Domain.join d1;
  Domain.join d2;
  let h = M.merged M.Eval_round in
  Alcotest.(check int) "merged across domains" 121 (H.count h);
  (* Merging is bucketwise addition: re-merging must be stable. *)
  Alcotest.(check (float 0.)) "deterministic quantile"
    (H.quantile h 0.5)
    (H.quantile (M.merged M.Eval_round) 0.5)

(* --- counters ------------------------------------------------------ *)

let test_counters_diff () =
  let before = C.snapshot () in
  C.add C.events_run 5;
  C.add C.lookups 3;
  C.incr C.pool_hits;
  let d = C.diff (C.snapshot ()) before in
  Alcotest.(check int) "events_run delta" 5 d.C.events_run;
  Alcotest.(check int) "lookups delta" 3 d.C.lookups;
  Alcotest.(check int) "pool_hits delta" 1 d.C.pool_hits;
  Alcotest.(check int) "untouched counter zero" 0 d.C.index_builds

let test_counters_record_roundtrip () =
  let s =
    {
      C.events_run = 1;
      acks_processed = 2;
      lookups = 3;
      index_builds = 4;
      pool_hits = 5;
      pool_misses = 6;
    }
  in
  match C.of_record (C.to_record s) with
  | None -> Alcotest.fail "of_record lost fields"
  | Some back ->
    Alcotest.(check int) "events_run" s.C.events_run back.C.events_run;
    Alcotest.(check int) "pool_misses" s.C.pool_misses back.C.pool_misses

(* --- manifest ------------------------------------------------------ *)

module Manifest = Remy_obs.Manifest

let sample_manifest () =
  Manifest.make ~tool:"remy_train"
    ~argv:[| "remy_train"; "--epochs"; "2" |]
    ~git:"deadbeef-dirty" ~config_fingerprint:"abc123" ~seed:42 ()

let check_manifest_eq a b =
  Alcotest.(check string) "tool" a.Manifest.tool b.Manifest.tool;
  Alcotest.(check string) "status" a.Manifest.status b.Manifest.status;
  Alcotest.(check string) "argv" a.Manifest.argv b.Manifest.argv;
  Alcotest.(check string) "git" a.Manifest.git b.Manifest.git;
  Alcotest.(check string) "config" a.Manifest.config_fingerprint
    b.Manifest.config_fingerprint;
  Alcotest.(check int) "cores" a.Manifest.host_cores b.Manifest.host_cores;
  Alcotest.(check int) "seed" a.Manifest.seed b.Manifest.seed;
  Alcotest.(check (float 1e-9)) "wall" a.Manifest.wall_s b.Manifest.wall_s;
  Alcotest.(check int) "counters" a.Manifest.counters.C.events_run
    b.Manifest.counters.C.events_run

let test_manifest_record_roundtrip () =
  let m = sample_manifest () in
  (match Manifest.of_record (Manifest.to_record m) with
  | Error e -> Alcotest.failf "running manifest: %s" e
  | Ok back -> check_manifest_eq m back);
  let fin = Manifest.finalize m ~status:"completed" ~wall_s:12.5 in
  match Manifest.of_record (Manifest.to_record fin) with
  | Error e -> Alcotest.failf "finalized manifest: %s" e
  | Ok back ->
    check_manifest_eq fin back;
    Alcotest.(check string) "status finalized" "completed" back.Manifest.status

let test_manifest_file_roundtrip () =
  let path = Filename.temp_file "manifest_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let m = Manifest.finalize (sample_manifest ()) ~status:"interrupted" ~wall_s:3. in
      Manifest.write ~path m;
      match Manifest.load ~path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok back -> check_manifest_eq m back)

let test_manifest_rejects_garbage () =
  Alcotest.(check bool) "missing schema refused" true
    (Result.is_error (Manifest.of_record [ ("tool", R.Str "x") ]))

(* --- dashboard ----------------------------------------------------- *)

module Dashboard = Remy_obs.Dashboard

let sample_epoch =
  {
    Remy_obs.Telemetry.epoch = 3;
    live_rules = 7;
    most_used_rule = Some 0;
    evaluations = 480;
    improvements = 5;
    subdivisions = 2;
    score = -3.5;
    wall_s = 12.;
    domains = 2;
    par_tasks = 100;
    par_spawns = 2;
    par_jobs = 50;
    par_helper_tasks = 40;
    spec_sims = 300;
    spec_skips = 100;
  }

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Dashboard.sparkline []);
  (* Each cell is one 3-byte UTF-8 block element. *)
  Alcotest.(check int) "one cell per value" 9
    (String.length (Dashboard.sparkline [ 1.; 2.; 3. ]));
  let flat = Dashboard.sparkline [ 5.; 5.; 5. ] in
  Alcotest.(check int) "flat series still draws" 9 (String.length flat)

let test_dashboard_render () =
  (* Point repaints at /dev/null; [render] is what we assert on. *)
  let null = open_out "/dev/null" in
  Fun.protect ~finally:(fun () -> close_out null) @@ fun () ->
  let d = Dashboard.create ~out:null ~wall_budget_s:600. () in
  Dashboard.update d sample_epoch;
  let frame = Dashboard.render d in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "epoch shown" true (contains "epoch" frame);
  Alcotest.(check bool) "cache hit rate" true (contains "25.0%" frame);
  Alcotest.(check bool) "pool utilization" true (contains "40.0%" frame);
  Alcotest.(check bool) "eta present" true (contains "eta" frame);
  Alcotest.(check bool) "no cursor control in render" true
    (not (contains "\027" frame))

(* --- observation changes nothing ----------------------------------- *)

let obs_config () =
  Topology.dumbbell ~service:(Topology.Rate_mbps 15.) ~qdisc:(Topology.Sfq_codel 1000)
    ~rtts:[| 0.15; 0.15 |] ~cc:(Newreno.factory ())
    ~workload:(Workload.by_bytes ~mean_bytes:5e4 ~mean_off:0.3) ~start:`Off_draw
    ~duration:20. ~seed:11 ()

let test_observation_invariance () =
  M.disable ();
  P.disable ();
  let plain = Topology.run (obs_config ()) in
  M.enable ();
  M.reset ();
  P.enable ();
  P.reset ();
  let observed =
    Fun.protect
      ~finally:(fun () ->
        M.disable ();
        P.disable ())
      (fun () -> P.span "obs" (fun () -> Topology.run (obs_config ())))
  in
  Array.iteri
    (fun i (f : Metrics.flow_summary) ->
      let g = observed.Topology.flows.(i) in
      Alcotest.(check (float 0.))
        (Printf.sprintf "flow %d throughput" i)
        f.Metrics.throughput_mbps g.Metrics.throughput_mbps;
      Alcotest.(check (float 0.))
        (Printf.sprintf "flow %d delay" i)
        f.Metrics.mean_queueing_delay_ms g.Metrics.mean_queueing_delay_ms)
    plain.Topology.flows;
  Alcotest.(check int) "drops identical" plain.Topology.drops
    observed.Topology.drops

(* --- trace summary delay percentiles ------------------------------- *)

let test_trace_summary_delay () =
  let path = Filename.temp_file "obs_delay" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      M.disable ();
      let tracer =
        Remy_obs.Trace.make
          (Remy_obs.Sink.to_file ~columns:Remy_obs.Trace.columns path)
      in
      ignore (Topology.run ~tracer (obs_config ()));
      Remy_obs.Trace.close tracer;
      match Remy_obs.Trace_summary.of_file path with
      | Error e -> Alcotest.failf "summary: %s" e
      | Ok s ->
        let h =
          match Hashtbl.find_opt s.Remy_obs.Trace_summary.delay_by_flow (0, 0) with
          | Some h -> h
          | None -> Alcotest.fail "flow 0 has no delay histogram"
        in
        Alcotest.(check bool) "delays recorded" true (H.count h > 0);
        let p50 = H.quantile h 0.5 and p99 = H.quantile h 0.99 in
        Alcotest.(check bool) "percentiles ordered" true (p50 <= p99);
        Alcotest.(check bool) "plausible delay range" true
          (p50 > 0. && p99 < 10.))

let tests =
  [
    QCheck_alcotest.to_alcotest prop_quantile_error;
    QCheck_alcotest.to_alcotest prop_merge_order_invariant;
    Alcotest.test_case "histogram edge buckets" `Quick test_histogram_edges;
    Alcotest.test_case "histogram summary fields" `Quick test_summary_fields;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception unwind" `Quick test_span_exception_unwind;
    Alcotest.test_case "span disabled passthrough" `Quick
      test_span_disabled_passthrough;
    Alcotest.test_case "profiler merge deterministic" `Quick
      test_merge_deterministic;
    Alcotest.test_case "collapsed stack format" `Quick test_collapsed_format;
    Alcotest.test_case "metrics disabled no-op" `Quick test_metrics_disabled_noop;
    Alcotest.test_case "metrics record and merge" `Quick
      test_metrics_record_and_merge;
    Alcotest.test_case "metrics cross-domain merge" `Quick
      test_metrics_cross_domain;
    Alcotest.test_case "counters diff" `Quick test_counters_diff;
    Alcotest.test_case "counters record round-trip" `Quick
      test_counters_record_roundtrip;
    Alcotest.test_case "manifest record round-trip" `Quick
      test_manifest_record_roundtrip;
    Alcotest.test_case "manifest file round-trip" `Quick
      test_manifest_file_roundtrip;
    Alcotest.test_case "manifest rejects garbage" `Quick
      test_manifest_rejects_garbage;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
    Alcotest.test_case "dashboard render" `Quick test_dashboard_render;
    Alcotest.test_case "observation invariance" `Slow test_observation_invariance;
    Alcotest.test_case "trace summary delay percentiles" `Slow
      test_trace_summary_delay;
  ]
