open Remy_cc

let ack ?(now = 1.) ?(rtt = Some 0.1) ?(newly = 1) ?(cum = 1) ?(ecn = false)
    ?(xcp = None) ?(in_recovery = false) () =
  {
    Cc.now;
    rtt;
    newly_acked = newly;
    cum_ack = cum;
    acked_seq = cum - 1;
    acked_sent_at = now -. (match rtt with Some r -> r | None -> 0.1);
    receiver_ts = now -. 0.05;
    ecn_echo = ecn;
    xcp_feedback = xcp;
    in_flight = 1;
    in_recovery;
  }

(* --- NewReno -------------------------------------------------------- *)

let test_newreno_slow_start () =
  let cc = Newreno.make ~initial_window:2. () in
  cc.Cc.reset ~now:0.;
  Alcotest.(check (float 1e-9)) "initial window" 2. (cc.Cc.window ());
  cc.Cc.on_ack (ack ~newly:2 ());
  Alcotest.(check (float 1e-9)) "slow start doubles per window" 4. (cc.Cc.window ())

let test_newreno_congestion_avoidance () =
  let cc = Newreno.make () in
  cc.Cc.reset ~now:0.;
  cc.Cc.on_loss ~now:1.;
  (* leaves slow start: ssthresh = cwnd/2 *)
  let w0 = cc.Cc.window () in
  cc.Cc.on_ack (ack ());
  Alcotest.(check (float 1e-9)) "additive increase" (w0 +. (1. /. w0)) (cc.Cc.window ())

let test_newreno_loss_halves () =
  let cc = Newreno.make () in
  cc.Cc.reset ~now:0.;
  for _ = 1 to 6 do
    cc.Cc.on_ack (ack ())
  done;
  let w = cc.Cc.window () in
  cc.Cc.on_loss ~now:1.;
  Alcotest.(check (float 1e-9)) "halved" (Float.max 2. (w /. 2.)) (cc.Cc.window ())

let test_newreno_timeout_collapses () =
  let cc = Newreno.make () in
  cc.Cc.reset ~now:0.;
  for _ = 1 to 6 do
    cc.Cc.on_ack (ack ())
  done;
  cc.Cc.on_timeout ~now:1.;
  Alcotest.(check (float 1e-9)) "window of one" 1. (cc.Cc.window ());
  (* After timeout, slow start resumes toward ssthresh. *)
  cc.Cc.on_ack (ack ());
  Alcotest.(check (float 1e-9)) "slow start resumes" 2. (cc.Cc.window ())

let test_newreno_frozen_in_recovery () =
  let cc = Newreno.make () in
  cc.Cc.reset ~now:0.;
  let w0 = cc.Cc.window () in
  cc.Cc.on_ack (ack ~in_recovery:true ());
  Alcotest.(check (float 1e-9)) "no growth during recovery" w0 (cc.Cc.window ())

(* --- Vegas ---------------------------------------------------------- *)

let run_vegas_epochs cc ~rtt ~epochs =
  (* Feed one-ack-per-epoch with the given RTT; epoch boundaries are
     time-based, so space the acks a full RTT apart. *)
  let now = ref 0.1 in
  for _ = 1 to epochs do
    cc.Cc.on_ack (ack ~now:!now ~rtt:(Some rtt) ());
    now := !now +. rtt +. 0.001
  done

let test_vegas_increases_when_uncongested () =
  let cc = Vegas.make ~alpha:1. ~beta:3. () in
  cc.Cc.reset ~now:0.;
  cc.Cc.on_loss ~now:0.;
  (* exit slow start; cwnd = 2 *)
  let w0 = cc.Cc.window () in
  (* Constant RTT = base RTT: diff = 0 < alpha, so +1 per epoch. *)
  run_vegas_epochs cc ~rtt:0.1 ~epochs:5;
  Alcotest.(check bool) "grew" true (cc.Cc.window () > w0 +. 2.)

let test_vegas_decreases_when_queueing () =
  let cc = Vegas.make ~alpha:1. ~beta:3. () in
  cc.Cc.reset ~now:0.;
  cc.Cc.on_loss ~now:0.;
  (* Establish a low base RTT, grow a bit. *)
  run_vegas_epochs cc ~rtt:0.1 ~epochs:8;
  let w_grown = cc.Cc.window () in
  (* Now the RTT inflates 3x: diff >> beta, Vegas must back off. *)
  run_vegas_epochs cc ~rtt:0.3 ~epochs:8;
  Alcotest.(check bool) "backed off" true (cc.Cc.window () < w_grown)

let test_vegas_slow_start_exits () =
  let cc = Vegas.make ~gamma:1. () in
  cc.Cc.reset ~now:0.;
  (* Huge queueing right away: slow start must stop doubling. *)
  run_vegas_epochs cc ~rtt:0.1 ~epochs:2;
  run_vegas_epochs cc ~rtt:0.5 ~epochs:6;
  Alcotest.(check bool) "window stays modest" true (cc.Cc.window () < 20.)

(* --- Cubic ---------------------------------------------------------- *)

let test_cubic_beta_decrease () =
  let cc = Cubic.make () in
  cc.Cc.reset ~now:0.;
  for _ = 1 to 20 do
    cc.Cc.on_ack (ack ())
  done;
  let w = cc.Cc.window () in
  cc.Cc.on_loss ~now:1.;
  Alcotest.(check (float 1e-6)) "0.7 multiplicative decrease" (w *. 0.7) (cc.Cc.window ())

let test_cubic_grows_toward_wmax () =
  let cc = Cubic.make () in
  cc.Cc.reset ~now:0.;
  for _ = 1 to 40 do
    cc.Cc.on_ack (ack ())
  done;
  cc.Cc.on_loss ~now:1.;
  let w_after_loss = cc.Cc.window () in
  (* Acks over the next seconds: concave growth back toward W_max. *)
  let now = ref 1.1 in
  for _ = 1 to 100 do
    cc.Cc.on_ack (ack ~now:!now ());
    now := !now +. 0.1
  done;
  let w = cc.Cc.window () in
  Alcotest.(check bool) "recovered beyond the drop" true (w > w_after_loss)

let test_cubic_timeout () =
  let cc = Cubic.make () in
  cc.Cc.reset ~now:0.;
  for _ = 1 to 10 do
    cc.Cc.on_ack (ack ())
  done;
  cc.Cc.on_timeout ~now:1.;
  Alcotest.(check (float 1e-9)) "collapses to 1" 1. (cc.Cc.window ())

(* --- Compound ------------------------------------------------------- *)

(* Feed a full window of ACKs per RTT — a realistic ACK clock, unlike
   one ACK per epoch which starves both the Reno and binomial terms. *)
let run_compound_epochs cc ~rtt ~epochs ~start =
  let now = ref start in
  for _ = 1 to epochs do
    let acks = max 1 (int_of_float (cc.Cc.window ())) in
    for _ = 1 to acks do
      cc.Cc.on_ack (ack ~now:!now ~rtt:(Some rtt) ())
    done;
    now := !now +. rtt +. 0.001
  done;
  !now

let grow_to cc ~target =
  (* Slow start with a full ACK clock until the window reaches target. *)
  let now = ref 0.01 in
  while cc.Cc.window () < target do
    cc.Cc.on_ack (ack ~now:!now ());
    now := !now +. 0.0001
  done;
  !now

let test_compound_dwnd_grows_when_uncongested () =
  let cc = Compound.make () in
  cc.Cc.reset ~now:0.;
  let t = grow_to cc ~target:100. in
  cc.Cc.on_loss ~now:t;
  (* exit slow start around win = 50 *)
  let w0 = cc.Cc.window () in
  let _ = run_compound_epochs cc ~rtt:0.1 ~epochs:10 ~start:(t +. 0.1) in
  (* Ten RTTs of Reno alone would add ~10; the binomial dwnd term
     (alpha * win^k - 1 per RTT, ~1.3 at win = 50) must push beyond that. *)
  Alcotest.(check bool) "superlinear growth" true (cc.Cc.window () > w0 +. 13.)

let test_compound_dwnd_retreats_under_queueing () =
  let cc = Compound.make () in
  cc.Cc.reset ~now:0.;
  let t = grow_to cc ~target:100. in
  cc.Cc.on_loss ~now:t;
  let t = run_compound_epochs cc ~rtt:0.1 ~epochs:30 ~start:(t +. 0.1) in
  let w_grown = cc.Cc.window () in
  (* RTT inflates 4x: diff >> gamma, the delay window must be released
     faster than Reno's additive term can regrow it. *)
  let _ = run_compound_epochs cc ~rtt:0.4 ~epochs:3 ~start:t in
  Alcotest.(check bool) "delay window retreats" true (cc.Cc.window () < w_grown)

let test_compound_loss_halves_combined () =
  let cc = Compound.make () in
  cc.Cc.reset ~now:0.;
  let t = grow_to cc ~target:100. in
  cc.Cc.on_loss ~now:t;
  let _ = run_compound_epochs cc ~rtt:0.1 ~epochs:10 ~start:(t +. 0.1) in
  let w = cc.Cc.window () in
  cc.Cc.on_loss ~now:(t +. 10.);
  let w' = cc.Cc.window () in
  if Float.abs (w' -. Float.max 2. (w /. 2.)) > 2. then
    Alcotest.failf "combined window not halved: %f -> %f" w w'

(* --- DCTCP ---------------------------------------------------------- *)

let test_dctcp_ecn_capable () =
  let cc = Dctcp.make () in
  Alcotest.(check bool) "requests ECN" true cc.Cc.ecn_capable

let test_dctcp_gentle_reduction () =
  let cc = Dctcp.make ~g:0.5 () in
  cc.Cc.reset ~now:0.;
  cc.Cc.on_loss ~now:0.;
  (* leave slow start *)
  (* Grow a bit without marks. *)
  for i = 1 to 50 do
    cc.Cc.on_ack (ack ~cum:i ())
  done;
  let w = cc.Cc.window () in
  (* A window with a small fraction of marks: reduction should be much
     gentler than halving. *)
  for i = 51 to 60 do
    cc.Cc.on_ack (ack ~cum:i ~ecn:(i = 51) ())
  done;
  let w' = cc.Cc.window () in
  Alcotest.(check bool) "reduced" true (w' < w +. 1.);
  Alcotest.(check bool) "gentler than halving" true (w' > w /. 2.)

let test_dctcp_full_marking_approaches_half () =
  let cc = Dctcp.make ~g:1.0 () in
  cc.Cc.reset ~now:0.;
  cc.Cc.on_loss ~now:0.;
  for i = 1 to 30 do
    cc.Cc.on_ack (ack ~cum:i ())
  done;
  let w = cc.Cc.window () in
  (* Everything marked with g=1: alpha -> 1, reduction -> w/2 within a
     couple of observation windows. *)
  for i = 31 to 120 do
    cc.Cc.on_ack (ack ~cum:i ~ecn:true ())
  done;
  Alcotest.(check bool) "strong reduction under full marking" true
    (cc.Cc.window () < w)

(* --- XCP endpoint --------------------------------------------------- *)

let test_xcp_applies_feedback () =
  let cc = Xcp.make ~initial_window:10. () in
  cc.Cc.reset ~now:0.;
  cc.Cc.on_ack (ack ~xcp:(Some 5.) ());
  Alcotest.(check (float 1e-9)) "positive feedback" 15. (cc.Cc.window ());
  cc.Cc.on_ack (ack ~xcp:(Some (-10.)) ());
  Alcotest.(check (float 1e-9)) "negative feedback" 5. (cc.Cc.window ());
  cc.Cc.on_ack (ack ~xcp:(Some (-100.)) ());
  Alcotest.(check (float 1e-9)) "floor of one" 1. (cc.Cc.window ())

let test_xcp_stamps_header () =
  let cc = Xcp.make ~initial_window:7. () in
  cc.Cc.reset ~now:0.;
  cc.Cc.on_ack (ack ~rtt:(Some 0.123) ~xcp:(Some 0.) ());
  let open Remy_sim in
  let table = Packet.create () in
  let h = Packet.acquire table ~flow:0 ~seq:0 ~conn:0 ~flags:0 ~now:1. in
  cc.Cc.stamp table h;
  Alcotest.(check bool) "header flagged" true (table.Packet.flags.{h} land Packet.xcp <> 0);
  Alcotest.(check (float 1e-9)) "cwnd stamped" 7. table.Packet.xcp_cwnd.{h};
  Alcotest.(check (float 1e-9)) "rtt stamped" 0.123 table.Packet.xcp_rtt.{h};
  Alcotest.(check bool) "feedback starts unbounded" true
    (table.Packet.xcp_feedback.{h} = infinity)

let test_xcp_reno_fallback () =
  let cc = Xcp.make ~initial_window:4. () in
  cc.Cc.reset ~now:0.;
  cc.Cc.on_ack (ack ~xcp:None ());
  Alcotest.(check (float 1e-9)) "reno-ish growth without routers" (4. +. (1. /. 4.))
    (cc.Cc.window ())

let tests =
  [
    Alcotest.test_case "newreno slow start" `Quick test_newreno_slow_start;
    Alcotest.test_case "newreno congestion avoidance" `Quick test_newreno_congestion_avoidance;
    Alcotest.test_case "newreno loss halves" `Quick test_newreno_loss_halves;
    Alcotest.test_case "newreno timeout collapses" `Quick test_newreno_timeout_collapses;
    Alcotest.test_case "newreno frozen in recovery" `Quick test_newreno_frozen_in_recovery;
    Alcotest.test_case "vegas grows when uncongested" `Quick test_vegas_increases_when_uncongested;
    Alcotest.test_case "vegas backs off queueing" `Quick test_vegas_decreases_when_queueing;
    Alcotest.test_case "vegas slow start exits" `Quick test_vegas_slow_start_exits;
    Alcotest.test_case "cubic 0.7 decrease" `Quick test_cubic_beta_decrease;
    Alcotest.test_case "cubic regrows toward wmax" `Quick test_cubic_grows_toward_wmax;
    Alcotest.test_case "cubic timeout" `Quick test_cubic_timeout;
    Alcotest.test_case "compound grows superlinearly" `Quick test_compound_dwnd_grows_when_uncongested;
    Alcotest.test_case "compound retreats under queueing" `Quick test_compound_dwnd_retreats_under_queueing;
    Alcotest.test_case "compound loss halves combined" `Quick test_compound_loss_halves_combined;
    Alcotest.test_case "dctcp is ecn capable" `Quick test_dctcp_ecn_capable;
    Alcotest.test_case "dctcp gentle reduction" `Quick test_dctcp_gentle_reduction;
    Alcotest.test_case "dctcp full marking" `Quick test_dctcp_full_marking_approaches_half;
    Alcotest.test_case "xcp applies feedback" `Quick test_xcp_applies_feedback;
    Alcotest.test_case "xcp stamps header" `Quick test_xcp_stamps_header;
    Alcotest.test_case "xcp reno fallback" `Quick test_xcp_reno_fallback;
  ]
