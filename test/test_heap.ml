let test_ordering () =
  let h = Heap.create () in
  List.iter (fun (p, v) -> Heap.push h p v) [ (3., "c"); (1., "a"); (2., "b") ];
  let order = List.init 3 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] order;
  Alcotest.(check bool) "empty after" true (Heap.is_empty h)

let test_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 1. v) [ "first"; "second"; "third" ];
  Heap.push h 0.5 "zeroth";
  let order = List.init 4 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string))
    "FIFO among equal priorities"
    [ "zeroth"; "first"; "second"; "third" ]
    order

let test_peek () =
  let h = Heap.create () in
  Alcotest.(check bool) "peek empty" true (Heap.peek h = None);
  Heap.push h 2. 20;
  Heap.push h 1. 10;
  Alcotest.(check bool) "peek min" true (Heap.peek h = Some (1., 10));
  Alcotest.(check int) "peek does not pop" 2 (Heap.size h)

let test_clear () =
  let h = Heap.create () in
  for i = 1 to 10 do
    Heap.push h (float_of_int i) i
  done;
  Heap.clear h;
  Alcotest.(check int) "cleared" 0 (Heap.size h);
  Heap.push h 1. 1;
  Alcotest.(check bool) "usable after clear" true (Heap.pop h = Some (1., 1))

let test_clear_keeps_capacity () =
  let h = Heap.create () in
  for i = 1 to 100 do
    Heap.push h (float_of_int i) i
  done;
  let cap = Heap.capacity h in
  Alcotest.(check bool) "grew past initial" true (cap >= 100);
  Heap.clear h;
  Alcotest.(check int) "capacity survives clear" cap (Heap.capacity h);
  (* Refill and drain: contents behave as if freshly built. *)
  for i = 100 downto 1 do
    Heap.push h (float_of_int i) i
  done;
  Alcotest.(check int) "no regrowth needed" cap (Heap.capacity h);
  let rec drain last n =
    match Heap.pop h with
    | None -> n
    | Some (p, _) ->
      Alcotest.(check bool) "nondecreasing" true (p >= last);
      drain p (n + 1)
  in
  Alcotest.(check int) "all elements back" 100 (drain neg_infinity 0)

let test_interleaved () =
  let h = Heap.create () in
  Heap.push h 5. 5;
  Heap.push h 1. 1;
  Alcotest.(check bool) "pop 1" true (Heap.pop h = Some (1., 1));
  Heap.push h 3. 3;
  Heap.push h 0.5 0;
  Alcotest.(check bool) "pop 0" true (Heap.pop h = Some (0.5, 0));
  Alcotest.(check bool) "pop 3" true (Heap.pop h = Some (3., 3));
  Alcotest.(check bool) "pop 5" true (Heap.pop h = Some (5., 5));
  Alcotest.(check bool) "now empty" true (Heap.pop h = None)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing priority order" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 200) (float_range (-1e6) 1e6))
    (fun prios ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h p i) prios;
      let rec drain last =
        match Heap.pop h with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain neg_infinity)

let prop_heap_preserves_all =
  QCheck.Test.make ~name:"heap returns every pushed element" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 100) (float_range 0. 100.))
    (fun prios ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h p i) prios;
      let rec drain acc =
        match Heap.pop h with None -> acc | Some (_, v) -> drain (v :: acc)
      in
      let out = List.sort compare (drain []) in
      out = List.init (List.length prios) Fun.id)

let test_min_prio_and_pop_exn () =
  let h = Heap.create () in
  Alcotest.(check (float 0.)) "min_prio of empty is infinity" Float.infinity
    (Heap.min_prio h);
  Alcotest.check_raises "pop_exn on empty raises"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h));
  Heap.push h 2. "b";
  Heap.push h 1. "a";
  Alcotest.(check (float 0.)) "min_prio sees the minimum" 1. (Heap.min_prio h);
  Alcotest.(check string) "pop_exn returns the value alone" "a" (Heap.pop_exn h);
  Alcotest.(check (float 0.)) "min_prio advances" 2. (Heap.min_prio h);
  Alcotest.(check string) "pop_exn drains in order" "b" (Heap.pop_exn h);
  Alcotest.(check (float 0.)) "empty again" Float.infinity (Heap.min_prio h)

let prop_pop_exn_matches_pop =
  QCheck.Test.make ~name:"min_prio/pop_exn agree with pop" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 100) (float_range (-1e6) 1e6))
    (fun prios ->
      let a = Heap.create () and b = Heap.create () in
      List.iteri
        (fun i p ->
          Heap.push a p i;
          Heap.push b p i)
        prios;
      let rec drain () =
        match Heap.pop a with
        | None -> Heap.min_prio b = Float.infinity
        | Some (p, v) ->
          Heap.min_prio b = p && Heap.pop_exn b = v && drain ()
      in
      drain ())

let tests =
  [
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "min_prio and pop_exn" `Quick test_min_prio_and_pop_exn;
    Alcotest.test_case "FIFO ties" `Quick test_fifo_ties;
    Alcotest.test_case "peek" `Quick test_peek;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "clear keeps capacity" `Quick test_clear_keeps_capacity;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_preserves_all;
    QCheck_alcotest.to_alcotest prop_pop_exn_matches_pop;
  ]
