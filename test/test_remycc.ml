open Remy
open Remy_cc
open Remy_sim

(* Deliver one ACK to [cc], by handle: the echoed segment was sent
   [rtt] before [now] and reached the receiver half an RTT before [now]. *)
let table = Packet.create ()

let ack (cc : Cc.t) ?(now = 1.) ?(rtt = 0.1) () =
  let h = Packet.acquire table ~flow:0 ~seq:0 ~conn:0 ~flags:0 ~now:(now -. rtt) in
  table.Packet.cum_ack.{h} <- 1;
  table.Packet.received_at.{h} <- now -. (rtt /. 2.);
  cc.Cc.on_ack table h ~now ~newly_acked:1 ~in_recovery:false;
  Packet.release table h

let test_initial_window_is_increment () =
  (* cwnd starts at m*0 + b = b for the zero-memory rule. *)
  let tree = Rule_tree.create () in
  Rule_tree.set_action tree 0
    { Action.multiple = 1.; increment = 5.; intersend_ms = 2. };
  let cc = Remycc.make tree in
  cc.Cc.reset ~now:0.;
  Alcotest.(check (float 1e-9)) "initial window" 5. cc.Cc.pacing.Cc.window;
  Alcotest.(check (float 1e-9)) "intersend seconds" 0.002 cc.Cc.pacing.Cc.intersend

let test_window_update_rule () =
  let tree = Rule_tree.create () in
  Rule_tree.set_action tree 0
    { Action.multiple = 0.5; increment = 3.; intersend_ms = 1. };
  let cc = Remycc.make tree in
  cc.Cc.reset ~now:0.;
  (* reset applies once: w = 3. Each ack: w = 0.5 w + 3. *)
  ack cc ();
  Alcotest.(check (float 1e-9)) "after one ack" 4.5 cc.Cc.pacing.Cc.window;
  ack cc ~now:1.2 ();
  Alcotest.(check (float 1e-9)) "after two acks" 5.25 cc.Cc.pacing.Cc.window

let test_loss_and_timeout_ignored () =
  let tree = Rule_tree.create () in
  let cc = Remycc.make tree in
  cc.Cc.reset ~now:0.;
  ack cc ();
  let w = cc.Cc.pacing.Cc.window in
  cc.Cc.on_loss ~now:2.;
  cc.Cc.on_timeout ~now:3.;
  Alcotest.(check (float 0.)) "window untouched by loss signals" w cc.Cc.pacing.Cc.window

let test_reset_clears_memory () =
  let tree = Rule_tree.create () in
  let cc = Remycc.make tree in
  cc.Cc.reset ~now:0.;
  for i = 1 to 20 do
    ack cc ~now:(float_of_int i *. 0.1) ()
  done;
  let w_grown = cc.Cc.pacing.Cc.window in
  cc.Cc.reset ~now:10.;
  Alcotest.(check (float 1e-9)) "back to initial" 1. cc.Cc.pacing.Cc.window;
  Alcotest.(check bool) "had grown" true (w_grown > 1.)

let test_rules_differentiate_by_memory () =
  (* Split the tree and give the high-rtt_ratio region a draconian
     action; a congested ack stream must select it. *)
  let tree = Rule_tree.create () in
  ignore
    (Rule_tree.subdivide tree 0
       ~at:(Memory.make ~ack_ewma:8000. ~send_ewma:8000. ~rtt_ratio:1.5));
  (* Octant index: rtt_ratio is dimension 2, so >=1.5 sets bit 4. *)
  List.iter
    (fun id ->
      let b = Rule_tree.box tree id in
      let lo_ratio = fst b.(2) in
      if lo_ratio >= 1.5 then
        Rule_tree.set_action tree id
          { Action.multiple = 0.; increment = 1.; intersend_ms = 100. }
      else
        Rule_tree.set_action tree id
          { Action.multiple = 1.; increment = 10.; intersend_ms = 0.01 })
    (Rule_tree.live_ids tree);
  let cc = Remycc.make tree in
  cc.Cc.reset ~now:0.;
  (* Uncongested acks: fast region, window grows by 10 per ack. *)
  ack cc ~now:0.1 ~rtt:0.1 ();
  ack cc ~now:0.2 ~rtt:0.1 ();
  Alcotest.(check bool) "aggressive region" true (cc.Cc.pacing.Cc.window > 20.);
  (* Now RTT doubles: ratio = 2 >= 1.5 selects the draconian rule. *)
  ack cc ~now:0.5 ~rtt:0.2 ();
  Alcotest.(check (float 1e-9)) "window collapsed" 1. cc.Cc.pacing.Cc.window;
  Alcotest.(check (float 1e-9)) "paced at 100 ms" 0.1 cc.Cc.pacing.Cc.intersend

let test_tally_records_usage () =
  let tree = Rule_tree.create () in
  let tally = Tally.create ~capacity:(Rule_tree.capacity tree) ~seed:3 () in
  let cc = Remycc.make ~tally tree in
  cc.Cc.reset ~now:0.;
  ack cc ();
  ack cc ~now:1.1 ();
  (* reset consults once + two acks. *)
  Alcotest.(check int) "uses counted" 3 (Tally.count tally 0)

let test_signal_mask () =
  (* With rtt_ratio masked, the draconian high-ratio rule from the
     differentiation test can never fire. *)
  let tree = Rule_tree.create () in
  ignore
    (Rule_tree.subdivide tree 0
       ~at:(Memory.make ~ack_ewma:8000. ~send_ewma:8000. ~rtt_ratio:1.5));
  List.iter
    (fun id ->
      let b = Rule_tree.box tree id in
      if fst b.(2) >= 1.5 then
        Rule_tree.set_action tree id
          { Action.multiple = 0.; increment = 1.; intersend_ms = 100. }
      else
        Rule_tree.set_action tree id
          { Action.multiple = 1.; increment = 10.; intersend_ms = 0.01 })
    (Rule_tree.live_ids tree);
  let mask = { Remycc.all_signals with Remycc.use_rtt_ratio = false } in
  let cc = Remycc.make ~mask tree in
  cc.Cc.reset ~now:0.;
  ack cc ~now:0.1 ~rtt:0.1 ();
  (* RTT doubles; unmasked this would collapse the window to 1. *)
  ack cc ~now:0.5 ~rtt:0.2 ();
  Alcotest.(check bool) "masked signal ignored" true (cc.Cc.pacing.Cc.window > 20.)

let test_override_changes_behavior () =
  let tree = Rule_tree.create () in
  let override = (0, { Action.multiple = 1.; increment = 7.; intersend_ms = 1. }) in
  let cc = Remycc.make ~override tree in
  cc.Cc.reset ~now:0.;
  Alcotest.(check (float 1e-9)) "override applied" 7. cc.Cc.pacing.Cc.window

let tests =
  [
    Alcotest.test_case "initial window = b" `Quick test_initial_window_is_increment;
    Alcotest.test_case "window update rule" `Quick test_window_update_rule;
    Alcotest.test_case "loss/timeout ignored" `Quick test_loss_and_timeout_ignored;
    Alcotest.test_case "reset clears memory" `Quick test_reset_clears_memory;
    Alcotest.test_case "rules differentiate by memory" `Quick test_rules_differentiate_by_memory;
    Alcotest.test_case "tally records usage" `Quick test_tally_records_usage;
    Alcotest.test_case "signal mask" `Quick test_signal_mask;
    Alcotest.test_case "override changes behavior" `Quick test_override_changes_behavior;
  ]
