open Remy_sim

let feq = Alcotest.float 1e-9

let test_constant_delay_fifo () =
  let engine = Engine.create () in
  let got = ref [] in
  let dl =
    Delay_line.create engine ~delay:0.5 (fun v ->
        got := (Engine.now engine, v) :: !got)
  in
  Engine.schedule engine 0. (fun () ->
      Delay_line.push dl 1;
      Delay_line.push dl 2);
  Engine.schedule engine 0.25 (fun () -> Delay_line.push dl 3);
  Engine.run engine ~until:2.;
  (match List.rev !got with
  | [ (t1, v1); (t2, v2); (t3, v3) ] ->
    Alcotest.(check int) "first value" 1 v1;
    Alcotest.(check int) "second value" 2 v2;
    Alcotest.(check int) "third value" 3 v3;
    Alcotest.check feq "first at push + delay" 0.5 t1;
    Alcotest.check feq "same-instant pushes keep order" 0.5 t2;
    Alcotest.check feq "later push arrives later" 0.75 t3
  | l -> Alcotest.failf "expected 3 deliveries, got %d" (List.length l));
  Alcotest.(check int) "line drained" 0 (Delay_line.length dl)

let test_ring_grows_transparently () =
  let engine = Engine.create () in
  let seen = ref 0 in
  let next_expected = ref 0 in
  let dl =
    Delay_line.create engine ~delay:0.1 (fun v ->
        Alcotest.(check int) "in push order" !next_expected v;
        incr next_expected;
        incr seen)
  in
  let n = 1000 in
  Engine.schedule engine 0. (fun () ->
      for i = 0 to n - 1 do
        Delay_line.push dl i
      done);
  Engine.schedule engine 0.05 (fun () ->
      Alcotest.(check int) "all in flight" n (Delay_line.length dl));
  Engine.run engine ~until:1.;
  Alcotest.(check int) "all delivered" n !seen;
  Alcotest.(check int) "none left" 0 (Delay_line.length dl)

let test_reentrant_push () =
  (* The handler itself pushes (like a receiver handing an ack to the
     reverse-path line): each hop must land exactly one delay later. *)
  let engine = Engine.create () in
  let times = ref [] in
  let dl_ref = ref None in
  let dl =
    Delay_line.create engine ~delay:0.5 (fun v ->
        times := Engine.now engine :: !times;
        if v < 3 then Delay_line.push (Option.get !dl_ref) (v + 1))
  in
  dl_ref := Some dl;
  Engine.schedule engine 0. (fun () -> Delay_line.push dl 0);
  Engine.run engine ~until:10.;
  Alcotest.(check (list feq)) "one hop per delay" [ 0.5; 1.0; 1.5; 2.0 ]
    (List.rev !times)

let tests =
  [
    Alcotest.test_case "constant delay, FIFO" `Quick test_constant_delay_fifo;
    Alcotest.test_case "ring grows transparently" `Quick
      test_ring_grows_transparently;
    Alcotest.test_case "reentrant push from the handler" `Quick
      test_reentrant_push;
  ]
