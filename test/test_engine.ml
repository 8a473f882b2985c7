open Remy_sim

let test_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e 3. (fun () -> log := 3 :: !log);
  Engine.schedule e 1. (fun () -> log := 1 :: !log);
  Engine.schedule e 2. (fun () -> log := 2 :: !log);
  Engine.run e ~until:10.;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter (fun i -> Engine.schedule e 1. (fun () -> log := i :: !log)) [ 1; 2; 3 ];
  Engine.run e ~until:10.;
  Alcotest.(check (list int)) "FIFO at same instant" [ 1; 2; 3 ] (List.rev !log)

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref 0. in
  Engine.schedule e 2.5 (fun () -> seen := Engine.now e);
  Engine.run e ~until:10.;
  Alcotest.(check (float 1e-12)) "clock at event" 2.5 !seen;
  Alcotest.(check (float 1e-12)) "clock at horizon" 10. (Engine.now e)

let test_until_excludes_later () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e 5. (fun () -> fired := true);
  Engine.run e ~until:4.;
  Alcotest.(check bool) "future event not fired" false !fired;
  Alcotest.(check int) "still pending" 1 (Engine.pending e);
  Engine.run e ~until:6.;
  Alcotest.(check bool) "fires later" true !fired

let test_cascading () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then Engine.schedule_in e 1. tick
  in
  Engine.schedule e 0. tick;
  Engine.run e ~until:100.;
  Alcotest.(check int) "chain of events" 5 !count;
  Alcotest.(check int) "agenda drained" 0 (Engine.pending e)

let test_past_scheduling_rejected () =
  let e = Engine.create () in
  Engine.schedule e 5. (fun () -> ());
  Engine.run e ~until:5.;
  (try
     Engine.schedule e 1. (fun () -> ());
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_nan_scheduling_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule: time is NaN")
    (fun () -> Engine.schedule e nan ignore);
  Alcotest.check_raises "NaN delay" (Invalid_argument "Engine.schedule: time is NaN")
    (fun () -> Engine.schedule_in e nan ignore);
  Alcotest.(check int) "nothing filed" 0 (Engine.pending e)

let test_schedule_now_during_event () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e 1. (fun () ->
      Engine.schedule e (Engine.now e) (fun () -> log := "inner" :: !log);
      log := "outer" :: !log);
  Engine.run e ~until:2.;
  Alcotest.(check (list string)) "same-instant follow-up runs" [ "outer"; "inner" ]
    (List.rev !log)

let prop_random_schedule_fires_in_order =
  QCheck.Test.make ~name:"random schedules fire in nondecreasing time order"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 100) (float_range 0. 1000.))
    (fun times ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter (fun t -> Engine.schedule e t (fun () -> fired := t :: !fired)) times;
      Engine.run e ~until:2000.;
      let fired = List.rev !fired in
      List.length fired = List.length times
      && List.for_all2 ( = ) fired (List.sort compare times))

let test_stress_many_events () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 0 to 49_999 do
    Engine.schedule e (float_of_int (i * 7919 mod 10_000)) (fun () -> incr count)
  done;
  Engine.run e ~until:1e6;
  Alcotest.(check int) "all 50k fired" 50_000 !count;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let tests =
  [
    Alcotest.test_case "events fire in time order" `Quick test_order;
    QCheck_alcotest.to_alcotest prop_random_schedule_fires_in_order;
    Alcotest.test_case "50k-event stress" `Quick test_stress_many_events;
    Alcotest.test_case "same-time events are FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "clock advances with events" `Quick test_clock_advances;
    Alcotest.test_case "run ~until excludes later events" `Quick test_until_excludes_later;
    Alcotest.test_case "cascading self-scheduling" `Quick test_cascading;
    Alcotest.test_case "scheduling in the past rejected" `Quick test_past_scheduling_rejected;
    Alcotest.test_case "scheduling at NaN rejected" `Quick test_nan_scheduling_rejected;
    Alcotest.test_case "same-instant follow-up" `Quick test_schedule_now_during_event;
  ]
