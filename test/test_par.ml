open Remy

(* --- persistent pool ------------------------------------------------- *)

let test_pool_identity () =
  Par.Pool.with_pool ~domains:4 (fun pool ->
      let xs = Array.init 100 Fun.id in
      Alcotest.(check (array int)) "order preserved"
        (Array.map (fun x -> x * 2) xs)
        (Par.Pool.map pool (fun x -> x * 2) xs))

let test_pool_empty () =
  Par.Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Par.Pool.map pool Fun.id [||]))

let test_pool_reuse_across_batches () =
  (* The whole point of the pool: many submissions over the same
     domains.  Batches of different types and sizes must all come back
     in order. *)
  Par.Pool.with_pool ~domains:3 (fun pool ->
      for batch = 1 to 50 do
        let xs = Array.init (1 + (batch mod 7)) (fun i -> (batch * 100) + i) in
        Alcotest.(check (array int))
          (Printf.sprintf "batch %d" batch)
          (Array.map (fun x -> x + 1) xs)
          (Par.Pool.map pool (fun x -> x + 1) xs)
      done;
      let names = Par.Pool.map pool string_of_int [| 1; 2; 3 |] in
      Alcotest.(check (array string)) "type change" [| "1"; "2"; "3" |] names)

let test_pool_single_domain () =
  Par.Pool.with_pool ~domains:1 (fun pool ->
      let xs = Array.init 10 Fun.id in
      Alcotest.(check (array int)) "domains=1 works" xs (Par.Pool.map pool Fun.id xs))

let test_pool_exception_propagates () =
  Par.Pool.with_pool ~domains:2 (fun pool ->
      (try
         ignore
           (Par.Pool.map pool
              (fun x -> if x = 5 then failwith "boom" else x)
              (Array.init 10 Fun.id));
         Alcotest.fail "expected exception"
       with Failure msg -> Alcotest.(check string) "message" "boom" msg);
      (* The pool survives a failed batch. *)
      Alcotest.(check (array int)) "usable after exception" [| 2; 4 |]
        (Par.Pool.map pool (fun x -> x * 2) [| 1; 2 |]))

let test_pool_matches_sequential () =
  Par.Pool.with_pool ~domains:3 (fun pool ->
      let xs = Array.init 200 (fun i -> float_of_int i) in
      let f x = sin x +. sqrt x in
      Alcotest.(check (array (float 0.))) "pool = sequential" (Array.map f xs)
        (Par.Pool.map pool f xs))

let test_pool_stats () =
  let before = Par.stats () in
  Par.Pool.with_pool ~domains:2 (fun pool ->
      for _ = 1 to 5 do
        ignore (Par.Pool.map pool Fun.id (Array.init 8 Fun.id))
      done);
  let after = Par.stats () in
  Alcotest.(check int) "jobs counted" 5 (after.Par.pool_jobs - before.Par.pool_jobs);
  Alcotest.(check int) "tasks counted" 40
    (after.Par.pool_tasks - before.Par.pool_tasks);
  (* Helper-task split depends on scheduling and core count; it can only
     be bounded. *)
  Alcotest.(check bool) "helper tasks within total" true
    (after.Par.pool_helper_tasks - before.Par.pool_helper_tasks <= 40)

(* --- retries and the watchdog ---------------------------------------- *)

let test_pool_retry_absorbs_transient_failure () =
  (* A task that fails on its first attempt but succeeds on retry: the
     batch must complete with the correct results and count the retry. *)
  let before = Par.stats () in
  let first = Atomic.make true in
  let f x =
    if x = 5 && Atomic.exchange first false then failwith "transient";
    x * 2
  in
  Par.Pool.with_pool ~retries:2 ~domains:2 (fun pool ->
      let ys = Par.Pool.map pool f (Array.init 10 Fun.id) in
      Alcotest.(check (array int)) "results correct despite the fault"
        (Array.init 10 (fun i -> i * 2))
        ys);
  let after = Par.stats () in
  Alcotest.(check int) "one retry recorded" 1
    (after.Par.pool_retries - before.Par.pool_retries)

let test_pool_retry_exhaustion_raises_task_failed () =
  Par.Pool.with_pool ~retries:2 ~domains:2 (fun pool ->
      try
        ignore
          (Par.Pool.map pool
             (fun x -> if x = 3 then failwith "persistent" else x)
             (Array.init 6 Fun.id));
        Alcotest.fail "expected Task_failed"
      with Par.Task_failed { index; attempts; error } ->
        Alcotest.(check int) "failing task index" 3 index;
        Alcotest.(check int) "initial try + 2 retries" 3 attempts;
        Alcotest.(check bool) "original error preserved" true
          (String.length error > 0))

let test_pool_retry_callback () =
  let seen = Atomic.make 0 in
  Par.Pool.with_pool ~retries:1
    ~on_retry:(fun ~task ~attempt _e ->
      ignore task;
      ignore attempt;
      Atomic.incr seen)
    ~domains:2
    (fun pool ->
      try
        ignore (Par.Pool.map pool (fun x -> if x = 0 then failwith "nope" else x) [| 0; 1 |])
      with Par.Task_failed _ -> ());
  Alcotest.(check int) "on_retry fired once" 1 (Atomic.get seen)

let test_pool_zero_retries_keeps_original_exception () =
  (* Back-compat: with the default retries=0 the task's own exception
     propagates, not Task_failed. *)
  Par.Pool.with_pool ~domains:2 (fun pool ->
      try
        ignore (Par.Pool.map pool (fun _ -> failwith "boom") [| 1 |]);
        Alcotest.fail "expected exception"
      with Failure msg -> Alcotest.(check string) "message" "boom" msg)

let test_pool_watchdog_catches_stall () =
  (* One task blocks forever on a helper domain; the submitter's
     watchdog must raise Stalled instead of hanging.  Requires >= 2
     domains so a helper exists to wedge; on a 1-core box the clamp
     leaves only the submitter, which cannot stall — skip there. *)
  if Domain.recommended_domain_count () < 2 then ()
  else begin
    let pool = Par.Pool.create ~stall_timeout_s:0.2 ~domains:2 () in
    let release = Atomic.make false in
    let main = Domain.self () in
    (* Helpers wedge on their first claim; the submitter works through
       its share slowly enough that a helper is sure to claim one, then
       waits in the watchdog loop — which must raise rather than hang. *)
    let f x =
      if Domain.self () <> main then begin
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        x
      end
      else begin
        Unix.sleepf 0.002;
        x
      end
    in
    (try
       ignore (Par.Pool.map pool f (Array.init 64 Fun.id));
       Alcotest.fail "expected Stalled"
     with Par.Stalled { completed; total; waited_s } ->
       Alcotest.(check int) "total tasks" 64 total;
       Alcotest.(check bool) "some tasks incomplete" true (completed < total);
       Alcotest.(check bool) "waited at least the timeout" true (waited_s >= 0.2));
    (* Unwedge the stuck domain so the test process can exit cleanly;
       the pool itself stays abandoned (no shutdown — it would hang if
       the domain were still stuck). *)
    Atomic.set release true;
    Unix.sleepf 0.05
  end

let test_pool_size_clamped () =
  Par.Pool.with_pool ~domains:64 (fun pool ->
      Alcotest.(check bool) "clamped to hardware" true
        (Par.Pool.size pool <= max 1 (Domain.recommended_domain_count ())))

let test_more_domains_than_work () =
  Par.Pool.with_pool ~domains:64 (fun pool ->
      Alcotest.(check (array int)) "clamped" [| 2; 4 |]
        (Par.Pool.map pool (fun x -> x * 2) [| 1; 2 |]))

let tests =
  [
    Alcotest.test_case "pool: identity map" `Quick test_pool_identity;
    Alcotest.test_case "pool: empty input" `Quick test_pool_empty;
    Alcotest.test_case "pool: reuse across batches" `Quick test_pool_reuse_across_batches;
    Alcotest.test_case "pool: single domain" `Quick test_pool_single_domain;
    Alcotest.test_case "pool: exception propagates" `Quick test_pool_exception_propagates;
    Alcotest.test_case "pool: matches sequential" `Quick test_pool_matches_sequential;
    Alcotest.test_case "pool: stats counters" `Quick test_pool_stats;
    Alcotest.test_case "pool: size clamped to hardware" `Quick test_pool_size_clamped;
    Alcotest.test_case "more domains than work" `Quick test_more_domains_than_work;
    Alcotest.test_case "pool: retry absorbs transient failure" `Quick
      test_pool_retry_absorbs_transient_failure;
    Alcotest.test_case "pool: retry exhaustion raises Task_failed" `Quick
      test_pool_retry_exhaustion_raises_task_failed;
    Alcotest.test_case "pool: on_retry callback fires" `Quick test_pool_retry_callback;
    Alcotest.test_case "pool: retries=0 keeps original exception" `Quick
      test_pool_zero_retries_keeps_original_exception;
    Alcotest.test_case "pool: watchdog catches a stalled worker" `Quick
      test_pool_watchdog_catches_stall;
  ]
