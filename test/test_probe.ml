(* Periodic probes: the sample grid is exact and drift-free, and a
   probed simulation emits one queue sample (plus one flow sample per
   sender) per grid point, including the final end-of-run sample. *)

open Remy_sim
open Remy_cc
module R = Remy_obs.Record
module Probe = Remy_obs.Probe

let floats = Alcotest.(list (float 1e-12))

let test_grid_exact () =
  Alcotest.check floats "interval divides span"
    [ 0.; 0.25; 0.5; 0.75; 1.0 ]
    (Probe.times ~interval:0.25 ~until:1.0);
  Alcotest.check floats "final sample lands on until"
    [ 0.; 0.3; 0.6; 0.9; 1.0 ]
    (Probe.times ~interval:0.3 ~until:1.0);
  Alcotest.check floats "interval longer than span" [ 0.; 0.2 ]
    (Probe.times ~interval:1.0 ~until:0.2)

let test_grid_no_drift () =
  (* k * interval, not an accumulator: after 10^5 steps the grid point
     is still the exact multiple. *)
  let interval = 0.01 in
  let ts = Array.of_list (Probe.times ~interval ~until:1000.) in
  Alcotest.(check int) "count" 100_001 (Array.length ts);
  Alcotest.(check (float 1e-9)) "midpoint exact" 500.
    ts.(50_000);
  Alcotest.(check (float 0.)) "endpoint exact" 1000. ts.(Array.length ts - 1)

let test_grid_rejects_bad_args () =
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Probe.times: interval must be positive") (fun () ->
      ignore (Probe.times ~interval:0. ~until:1.));
  Alcotest.check_raises "negative until"
    (Invalid_argument "Probe.times: until must be non-negative") (fun () ->
      ignore (Probe.times ~interval:1. ~until:(-1.)))

let run_probed ~n ~duration ~probe_interval =
  let sink, read = Remy_obs.Sink.memory () in
  let cfg =
    {
      Dumbbell.service = Dumbbell.Rate_mbps 10.;
      qdisc = Dumbbell.Droptail 100;
      flows =
        Array.init n (fun _ ->
            {
              Dumbbell.cc = Newreno.factory ();
              rtt = 0.05;
              workload = Workload.saturating;
              start = `Immediate;
            });
      duration;
      seed = 77;
      min_rto = 0.2;
    }
  in
  ignore (Sims.dumbbell ~tracer:(Remy_obs.Trace.make sink) ~probe_interval cfg);
  read ()

let filter_ev records kind =
  List.filter (fun r -> R.find "ev" r = Some (R.Str kind)) records

let test_sampler_fires_at_interval () =
  let records = run_probed ~n:2 ~duration:1.0 ~probe_interval:0.25 in
  let qsamples = filter_ev records "qsample" in
  let fsamples = filter_ev records "fsample" in
  (* 0, 0.25, 0.5, 0.75, 1.0 *)
  Alcotest.(check int) "one queue sample per grid point" 5 (List.length qsamples);
  Alcotest.(check int) "one flow sample per sender per grid point" 10
    (List.length fsamples)

let test_final_sample_at_sim_end () =
  let records = run_probed ~n:1 ~duration:1.1 ~probe_interval:0.25 in
  let qsamples = filter_ev records "qsample" in
  (* 0, 0.25, 0.5, 0.75, 1.0, 1.1 *)
  Alcotest.(check int) "trailing partial interval still sampled" 6
    (List.length qsamples);
  let last = List.nth qsamples (List.length qsamples - 1) in
  Alcotest.(check (option (float 0.))) "last sample at sim end" (Some 1.1)
    (Option.bind (R.find "t" last) R.to_float)

let test_samples_carry_state () =
  let records = run_probed ~n:1 ~duration:2.0 ~probe_interval:0.5 in
  (* After startup, a saturating NewReno flow has positive cwnd and a
     measured srtt; the queue sample sees the droptail bottleneck. *)
  let late_fsamples =
    List.filter
      (fun r ->
        match Option.bind (R.find "t" r) R.to_float with
        | Some t -> t >= 1.0
        | None -> false)
      (filter_ev records "fsample")
  in
  Alcotest.(check bool) "late flow samples exist" true (late_fsamples <> []);
  List.iter
    (fun r ->
      (match Option.bind (R.find "cwnd" r) R.to_float with
      | Some c -> Alcotest.(check bool) "cwnd positive" true (c > 0.)
      | None -> Alcotest.fail "fsample missing cwnd");
      match Option.bind (R.find "srtt_s" r) R.to_float with
      | Some s -> Alcotest.(check bool) "srtt positive" true (s > 0.)
      | None -> Alcotest.fail "late fsample missing srtt")
    late_fsamples;
  match filter_ev records "qsample" with
  | r :: _ ->
    Alcotest.(check (option string)) "queue name" (Some "droptail")
      (Option.bind (R.find "q" r) R.to_str)
  | [] -> Alcotest.fail "no qsamples"

let tests =
  [
    Alcotest.test_case "grid is exact" `Quick test_grid_exact;
    Alcotest.test_case "grid does not drift" `Quick test_grid_no_drift;
    Alcotest.test_case "grid rejects bad arguments" `Quick test_grid_rejects_bad_args;
    Alcotest.test_case "sampler fires at interval" `Slow
      test_sampler_fires_at_interval;
    Alcotest.test_case "final sample at sim end" `Slow test_final_sample_at_sim_end;
    Alcotest.test_case "samples carry live state" `Slow test_samples_carry_state;
  ]
