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

(* A callback that raises is consumed: the exception propagates out of
   [run], the clock stays at the raising event, what the callback
   scheduled before raising stays scheduled, and the next [run] fires
   the rest in (time, seq) order, including an event scheduled between
   the two runs. *)
let test_raising_callback () =
  let e = Engine.create () in
  let log = ref [] in
  let note i () = log := (Engine.now e, i) :: !log in
  Engine.schedule e 1. (note 1);
  Engine.schedule e 2. (fun () ->
      note 2 ();
      Engine.schedule_in e 0.5 (note 6);
      failwith "boom");
  Engine.schedule e 2. (note 3);
  Engine.schedule e 3. (note 4);
  Engine.schedule e 2. (fun () -> failwith "boom again");
  Alcotest.check_raises "the exception propagates" (Failure "boom") (fun () ->
      Engine.run e ~until:10.);
  Alcotest.(check (float 0.)) "clock at the raising event" 2. (Engine.now e);
  Alcotest.(check int) "the raising event is consumed" 4 (Engine.pending e);
  Engine.schedule e 2.25 (note 5);
  Alcotest.check_raises "the second raise" (Failure "boom again") (fun () ->
      Engine.run e ~until:10.);
  Alcotest.(check int) "consumed again" 3 (Engine.pending e);
  Engine.run e ~until:10.;
  Alcotest.(check (list (pair (float 0.) int)))
    "the rest fire in (time, seq) order"
    [ (1., 1); (2., 2); (2., 3); (2.25, 5); (2.5, 6); (3., 4) ]
    (List.rev !log);
  Alcotest.(check int) "drained" 0 (Engine.pending e)

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

(* --- the heap oracle ---------------------------------------------------- *)

(* The same program must fire in the same order on the engine as on a
   minimal scheduler over the test-only {!Heap} (clamped times, FIFO ties,
   clock set on pop), where a registered handle is just its closure and
   a delay-line push is one event [delay] later.  A program mixes
   one-shot events, registered handles and pushes onto three delay
   lines (two with equal delays, one with zero delay), and callbacks
   schedule, fire handles and push at the same instant.  Firing order
   is observed as the exact (now, id) stream. *)
type sched = {
  now : unit -> float;
  at : float -> (unit -> unit) -> unit;
  handle : (unit -> unit) -> float -> unit; (* register; then schedule_in *)
  line : float -> (int -> unit) -> int -> unit; (* create; then push *)
  run : unit -> unit;
}

let line_delays = [| 0.5; 0.5; 0. |]

let run_program s prog =
  let log = ref [] in
  let note id = log := (s.now (), id) :: !log in
  (* Line [li] passes values [id * 4 + depth]; below depth 3 a value
     moves on to the next line. *)
  let pushes = Array.make 3 (fun (_ : int) -> ()) in
  Array.iteri
    (fun li delay ->
      pushes.(li) <-
        s.line delay (fun v ->
            note ((100_000 * (li + 1)) + v);
            if v land 3 < 2 then pushes.((li + 1) mod 3) (v + 1)))
    line_delays;
  let fired = Array.make 2 0 in
  let handles =
    Array.init 2 (fun j ->
        s.handle (fun () ->
            fired.(j) <- fired.(j) + 1;
            note (500_000 + (j * 10_000) + fired.(j))))
  in
  List.iteri
    (fun i (d, kind) ->
      s.at d (fun () ->
          note i;
          match kind mod 5 with
          | 0 ->
            s.at (s.now ()) (fun () -> note (i + 10_000));
            s.at (s.now () +. (d /. 7.) +. 3.5e-7) (fun () -> note (i + 20_000))
          | 1 -> pushes.(kind / 5 mod 3) (i * 4)
          | 2 -> handles.(i mod 2) 0.
          | 3 -> handles.(i mod 2) (d /. 11.)
          | _ ->
            pushes.(0) (i * 4);
            pushes.(1) (i * 4);
            handles.(0) 0.))
    prog;
  s.run ();
  List.rev !log

let on_engine prog =
  let e = Engine.create () in
  run_program
    {
      now = (fun () -> Engine.now e);
      at = Engine.schedule e;
      handle =
        (fun f ->
          let h = Engine.register e f in
          fun dt -> Engine.schedule_handle_in e dt h);
      line =
        (fun delay handler -> Delay_line.push (Delay_line.create e ~delay handler));
      run = (fun () -> Engine.run e ~until:1e9);
    }
    prog

let on_heap prog =
  let h = Heap.create () and clock = ref 0. in
  let at t f = Heap.push h (Float.max t !clock) f in
  let rec run () =
    match Heap.pop h with
    | Some (t, f) ->
      clock := t;
      f ();
      run ()
    | None -> ()
  in
  run_program
    {
      now = (fun () -> !clock);
      at;
      handle = (fun f dt -> at (!clock +. dt) f);
      line = (fun delay handler v -> at (!clock +. delay) (fun () -> handler v));
      run;
    }
    prog

let program_arb =
  QCheck.(
    list_of_size
      Gen.(int_range 0 120)
      (pair (oneof [ float_range 0. 1200.; map float_of_int (int_range 0 10) ]) small_nat))

let prop_engine_matches_heap =
  QCheck.Test.make ~name:"agenda matches the heap oracle" ~count:100 program_arb
    (fun prog -> on_engine prog = on_heap prog)

(* A -0. time from time 0 is filed at now, +0.: the callback must see
   a clock whose reciprocal is +infinity. *)
let test_negative_zero_time () =
  let e = Engine.create () in
  let seen = ref Float.nan in
  let h = Engine.register e (fun () -> seen := 1. /. Engine.now e) in
  Engine.schedule_handle e (-0.) h;
  Engine.run e ~until:1.;
  Alcotest.(check bool) "fired at +0." true (!seen = Float.infinity)

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
    QCheck_alcotest.to_alcotest prop_engine_matches_heap;
    Alcotest.test_case "50k-event stress" `Quick test_stress_many_events;
    Alcotest.test_case "same-time events are FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "clock advances with events" `Quick test_clock_advances;
    Alcotest.test_case "run ~until excludes later events" `Quick test_until_excludes_later;
    Alcotest.test_case "cascading self-scheduling" `Quick test_cascading;
    Alcotest.test_case "scheduling in the past rejected" `Quick test_past_scheduling_rejected;
    Alcotest.test_case "scheduling at NaN rejected" `Quick test_nan_scheduling_rejected;
    Alcotest.test_case "a -0. time is filed at now" `Quick test_negative_zero_time;
    Alcotest.test_case "same-instant follow-up" `Quick test_schedule_now_during_event;
    Alcotest.test_case "a raising callback is consumed" `Quick test_raising_callback;
  ]
