(* The timing-wheel acceptance tests: the wheel honours the Heap
   contract exactly (QCheck drives identical op sequences through both
   and demands identical outputs, including overflow-horizon and
   below-cursor pushes), and the engine fires the same closures in the
   same order as a minimal heap-driven scheduler. *)

open Remy_util
open Remy_sim

(* --- units, mirroring test_heap.ml --------------------------------- *)

let test_ordering () =
  let w = Timing_wheel.create () in
  List.iter
    (fun (p, v) -> Timing_wheel.push w p v)
    [ (3., "c"); (1., "a"); (2., "b") ];
  let order = List.init 3 (fun _ -> snd (Option.get (Timing_wheel.pop w))) in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] order;
  Alcotest.(check bool) "empty after" true (Timing_wheel.is_empty w)

let test_fifo_ties () =
  let w = Timing_wheel.create () in
  List.iter (fun v -> Timing_wheel.push w 1. v) [ "first"; "second"; "third" ];
  Timing_wheel.push w 0.5 "zeroth";
  let order = List.init 4 (fun _ -> snd (Option.get (Timing_wheel.pop w))) in
  Alcotest.(check (list string))
    "FIFO among equal priorities"
    [ "zeroth"; "first"; "second"; "third" ]
    order

let test_sub_tick_ordering () =
  (* Priorities inside one quantization tick (1 µs) must still pop in
     exact-priority order: the drain re-sorts by (prio, seq). *)
  let w = Timing_wheel.create () in
  Timing_wheel.push w 7e-7 "late";
  Timing_wheel.push w 2e-7 "early";
  Timing_wheel.push w 2e-7 "early2";
  Alcotest.(check bool) "exact priority wins inside a tick" true
    (Timing_wheel.pop w = Some (2e-7, "early"));
  Alcotest.(check bool) "FIFO inside a tick" true
    (Timing_wheel.pop w = Some (2e-7, "early2"));
  Alcotest.(check bool) "then the later sub-tick event" true
    (Timing_wheel.pop w = Some (7e-7, "late"))

let test_peek () =
  let w = Timing_wheel.create () in
  Alcotest.(check bool) "peek empty" true (Timing_wheel.peek w = None);
  Timing_wheel.push w 2. 20;
  Timing_wheel.push w 1. 10;
  Alcotest.(check bool) "peek min" true (Timing_wheel.peek w = Some (1., 10));
  Alcotest.(check int) "peek does not pop" 2 (Timing_wheel.size w)

let test_min_prio_and_pop_exn () =
  let w = Timing_wheel.create () in
  Alcotest.(check (float 0.)) "min_prio of empty is infinity" Float.infinity
    (Timing_wheel.min_prio w);
  Alcotest.check_raises "pop_exn on empty raises"
    (Invalid_argument "Timing_wheel.pop_exn: empty wheel") (fun () ->
      ignore (Timing_wheel.pop_exn w));
  Timing_wheel.push w 2. "b";
  Timing_wheel.push w 1. "a";
  Alcotest.(check (float 0.)) "min_prio sees the minimum" 1.
    (Timing_wheel.min_prio w);
  Alcotest.(check string) "pop_exn returns the value alone" "a"
    (Timing_wheel.pop_exn w);
  Alcotest.(check (float 0.)) "min_prio advances" 2. (Timing_wheel.min_prio w);
  Alcotest.(check string) "pop_exn drains in order" "b" (Timing_wheel.pop_exn w);
  Alcotest.(check (float 0.)) "empty again" Float.infinity
    (Timing_wheel.min_prio w)

let test_clear () =
  let w = Timing_wheel.create () in
  for i = 1 to 10 do
    Timing_wheel.push w (float_of_int i) i
  done;
  (* Leave the cursor mid-stream so clear also resets drain state. *)
  ignore (Timing_wheel.pop w);
  Timing_wheel.clear w;
  Alcotest.(check int) "cleared" 0 (Timing_wheel.size w);
  Timing_wheel.push w 1. 1;
  Alcotest.(check bool) "usable after clear" true
    (Timing_wheel.pop w = Some (1., 1))

let test_overflow_horizon () =
  (* The six 32-slot levels cover ~2^30 ticks (~17 min at 1 µs); events
     beyond that sit in the overflow heap and must still interleave
     correctly with near events pushed later. *)
  let w = Timing_wheel.create () in
  Timing_wheel.push w 1e7 "far2";
  Timing_wheel.push w 5e6 "far1";
  Timing_wheel.push w 0.25 "near2";
  Timing_wheel.push w 0.125 "near1";
  Alcotest.(check bool) "near first" true
    (Timing_wheel.pop w = Some (0.125, "near1"));
  Timing_wheel.push w 0.5 "near3";
  let rest = List.init 4 (fun _ -> snd (Option.get (Timing_wheel.pop w))) in
  Alcotest.(check (list string))
    "overflow drains after the wheel, in order"
    [ "near2"; "near3"; "far1"; "far2" ]
    rest;
  Alcotest.(check bool) "empty" true (Timing_wheel.is_empty w)

let test_rewind () =
  (* Pushing below the most recently popped priority is the documented
     O(n) cold path; order must survive it, including from overflow. *)
  let w = Timing_wheel.create () in
  Timing_wheel.push w 10. "ten";
  Timing_wheel.push w 5e6 "overflowed";
  Alcotest.(check bool) "pop ten" true (Timing_wheel.pop w = Some (10., "ten"));
  Timing_wheel.push w 1. "one";
  Timing_wheel.push w (-2.) "minus-two";
  let order = List.init 3 (fun _ -> snd (Option.get (Timing_wheel.pop w))) in
  Alcotest.(check (list string))
    "rewound pops still globally sorted"
    [ "minus-two"; "one"; "overflowed" ]
    order

(* --- QCheck oracle: the Heap is the specification ------------------- *)

(* Random op sequences mixing pushes at three scales — engine-like
   (in-wheel), beyond the top-level horizon (overflow heap), and
   negative/below-cursor (rewind) — with pops.  After the sequence, both
   structures are drained; every intermediate and final observation must
   match the heap's. *)
let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun p -> `Push p) (float_range 0. 2000.));
        (2, map (fun p -> `Push p) (float_range 0. 1e-4));
        (1, map (fun p -> `Push p) (float_range 1e6 1e8));
        (1, map (fun p -> `Push p) (float_range (-100.) 100.));
        (4, return `Pop);
      ])

let print_op = function
  | `Push p -> Printf.sprintf "push %h" p
  | `Pop -> "pop"

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_range 0 400) op_gen)

let prop_wheel_matches_heap =
  QCheck.Test.make ~name:"wheel is observationally identical to heap" ~count:200
    ops_arb (fun ops ->
      let h = Heap.create () and w = Timing_wheel.create () in
      let next = ref 0 in
      let same_pop () =
        let a = Heap.pop h and b = Timing_wheel.pop w in
        (match (a, b) with
        | None, None -> true
        | Some (pa, va), Some (pb, vb) -> pa = pb && va = vb
        | _ -> false)
        && Heap.min_prio h = Timing_wheel.min_prio w
        && Heap.size h = Timing_wheel.size w
      in
      List.for_all
        (fun op ->
          match op with
          | `Push p ->
            let v = !next in
            incr next;
            Heap.push h p v;
            Timing_wheel.push w p v;
            Heap.size h = Timing_wheel.size w
            && Heap.min_prio h = Timing_wheel.min_prio w
          | `Pop -> same_pop ())
        ops
      &&
      let rec drain () = if Heap.is_empty h then true else same_pop () && drain () in
      drain () && Timing_wheel.is_empty w)

let prop_wheel_preserves_all =
  QCheck.Test.make ~name:"wheel returns every pushed element" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 150) (float_range (-10.) 1e7))
    (fun prios ->
      let w = Timing_wheel.create () in
      List.iteri (fun i p -> Timing_wheel.push w p i) prios;
      let rec drain acc =
        match Timing_wheel.pop w with None -> acc | Some (_, v) -> drain (v :: acc)
      in
      let out = List.sort compare (drain []) in
      out = List.init (List.length prios) Fun.id)

(* --- engine-level equivalence --------------------------------------- *)

(* The same schedule — including closures that schedule further events,
   equal-time ties, and sub-microsecond offsets — must fire in the same
   order on the engine as on a minimal heap-driven scheduler (clamped
   times, FIFO ties, clock set on pop).  Firing order is observed as the
   exact (now, id) stream. *)
let run_schedule ~now ~schedule ~schedule_in ~run delays =
  let log = ref [] in
  let fire id () = log := (now (), id) :: !log in
  List.iteri
    (fun i d ->
      schedule d (fun () ->
          fire i ();
          (* A third of the events spawn children relative to now, one
             of them at zero delay (same-instant tie with siblings). *)
          if i mod 3 = 0 then begin
            schedule_in 0. (fire (i + 10_000));
            schedule_in ((d /. 7.) +. 3.5e-7) (fire (i + 20_000))
          end))
    delays;
  run ();
  List.rev !log

let on_engine delays =
  let eng = Engine.create () in
  run_schedule
    ~now:(fun () -> Engine.now eng)
    ~schedule:(Engine.schedule eng) ~schedule_in:(Engine.schedule_in eng)
    ~run:(fun () -> Engine.run eng ~until:1e9)
    delays

let on_heap delays =
  let h = Heap.create () and clock = ref 0. in
  let schedule at f = Heap.push h (Float.max at !clock) f in
  let rec run () =
    match Heap.pop h with
    | Some (at, f) ->
      clock := at;
      f ();
      run ()
    | None -> ()
  in
  run_schedule
    ~now:(fun () -> !clock)
    ~schedule ~schedule_in:(fun dt f -> schedule (!clock +. dt) f)
    ~run delays

let prop_engine_backend_invariant =
  QCheck.Test.make ~name:"engine fires identically on wheel and heap" ~count:60
    QCheck.(list_of_size Gen.(int_range 0 120) (float_range 0. 1200.))
    (fun delays -> on_engine delays = on_heap delays)

let tests =
  [
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO ties" `Quick test_fifo_ties;
    Alcotest.test_case "sub-tick ordering" `Quick test_sub_tick_ordering;
    Alcotest.test_case "peek" `Quick test_peek;
    Alcotest.test_case "min_prio and pop_exn" `Quick test_min_prio_and_pop_exn;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "overflow horizon" `Quick test_overflow_horizon;
    Alcotest.test_case "rewind below cursor" `Quick test_rewind;
    QCheck_alcotest.to_alcotest prop_wheel_matches_heap;
    QCheck_alcotest.to_alcotest prop_wheel_preserves_all;
    QCheck_alcotest.to_alcotest prop_engine_backend_invariant;
  ]
