(* A pool's [domains] counts the submitting domain, which runs tasks
   too, so one domain per core keeps every core busy. *)
let recommended_domains () = Domain.recommended_domain_count ()

type stats = {
  spawns : int;
  pool_jobs : int;
  pool_tasks : int;
  pool_helper_tasks : int;
  pool_retries : int;
}

exception Task_failed of { index : int; attempts : int; error : string }
exception Stalled of { completed : int; total : int; waited_s : float }

let spawns = Atomic.make 0
let pool_jobs = Atomic.make 0
let pool_tasks = Atomic.make 0
let pool_helper_tasks = Atomic.make 0
let pool_retries = Atomic.make 0

let stats () =
  {
    spawns = Atomic.get spawns;
    pool_jobs = Atomic.get pool_jobs;
    pool_tasks = Atomic.get pool_tasks;
    pool_helper_tasks = Atomic.get pool_helper_tasks;
    pool_retries = Atomic.get pool_retries;
  }

let () =
  Printexc.register_printer (function
    | Task_failed { index; attempts; error } ->
      Some
        (Printf.sprintf "Par.Task_failed(task %d failed after %d attempt%s: %s)"
           index attempts
           (if attempts = 1 then "" else "s")
           error)
    | Stalled { completed; total; waited_s } ->
      Some
        (Printf.sprintf
           "Par.Stalled(no task completed for %.1f s; %d/%d done — a worker \
            domain appears wedged)"
           waited_s completed total)
    | _ -> None)

(* Never run more domains than the hardware offers: OCaml 5's minor GC
   is stop-the-world across *running* domains, so oversubscribing cores
   turns every collection into a scheduling barrier (measured 5x
   slowdown at domains=4 on a 1-core box).  Results never depend on the
   domain count, so clamping is invisible except in wall time. *)
let hw_clamp domains = max 1 (min domains (Domain.recommended_domain_count ()))

module Pool = struct
  type job = { run : int -> unit; n : int; next : int Atomic.t; finished : int Atomic.t }

  type t = {
    size : int;
    mutable workers : unit Domain.t list;
    m : Mutex.t;
    work : Condition.t;  (* a new job arrived, or shutdown *)
    idle : Condition.t;  (* the current job completed *)
    mutable job : (int * job) option;  (* generation tag, job *)
    mutable gen : int;
    mutable stop : bool;
    retries : int;
    on_retry : (task:int -> attempt:int -> exn -> unit) option;
    stall_timeout_s : float option;
  }

  (* Claim tasks off the shared cursor until it is exhausted.  The
     participant that retires the last task wakes the submitter. *)
  let help t ~helper (j : job) =
    let rec loop () =
      let i = Atomic.fetch_and_add j.next 1 in
      if i < j.n then begin
        j.run i;
        Atomic.incr pool_tasks;
        if helper then Atomic.incr pool_helper_tasks;
        if 1 + Atomic.fetch_and_add j.finished 1 = j.n then begin
          Mutex.lock t.m;
          Condition.broadcast t.idle;
          Mutex.unlock t.m
        end;
        loop ()
      end
    in
    loop ()

  let worker t () =
    let seen = ref 0 in
    let rec loop () =
      Mutex.lock t.m;
      let rec wait () =
        if t.stop then None
        else
          match t.job with
          | Some (g, j) when g > !seen -> Some (g, j)
          | _ ->
            Condition.wait t.work t.m;
            wait ()
      in
      let claimed = wait () in
      Mutex.unlock t.m;
      match claimed with
      | None -> ()
      | Some (g, j) ->
        seen := g;
        help t ~helper:true j;
        loop ()
    in
    loop ()

  let create ?(retries = 0) ?on_retry ?stall_timeout_s ~domains () =
    let size = hw_clamp domains in
    let pool =
      {
        size;
        workers = [];
        m = Mutex.create ();
        work = Condition.create ();
        idle = Condition.create ();
        job = None;
        gen = 0;
        stop = false;
        retries;
        on_retry;
        stall_timeout_s;
      }
    in
    pool.workers <- List.init (size - 1) (fun _ -> Domain.spawn (worker pool));
    ignore (Atomic.fetch_and_add spawns (size - 1));
    pool

  let size t = t.size

  let submit t job =
    Atomic.incr pool_jobs;
    Mutex.lock t.m;
    t.gen <- t.gen + 1;
    t.job <- Some (t.gen, job);
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    help t ~helper:false job;
    (match t.stall_timeout_s with
    | None ->
      Mutex.lock t.m;
      while Atomic.get job.finished < job.n do
        Condition.wait t.idle t.m
      done;
      Mutex.unlock t.m
    | Some timeout ->
      (* Watchdog: the submitter has drained the cursor, so only tasks
         already claimed by helpers remain.  Poll their completion; if no
         task retires for [timeout] seconds, a helper domain is wedged
         (domains cannot be killed), so surface a contained, reported
         failure instead of hanging forever.  The pool is unusable after
         [Stalled]; the caller is expected to checkpoint and abort. *)
      (* The watchdog measures real elapsed time, never simulated time,
         and its readings cannot reach any result: tasks are pure and a
         firing only aborts the run.  Audited wall-clock use. *)
      let last = ref (Atomic.get job.finished) in
      (* remy-lint: allow wall-clock *)
      let last_change = ref (Unix.gettimeofday ()) in
      while Atomic.get job.finished < job.n do
        Unix.sleepf 0.002;
        let done_now = Atomic.get job.finished in
        if done_now <> !last then begin
          last := done_now;
          last_change := Unix.gettimeofday () (* remy-lint: allow wall-clock *)
        end
        else begin
          (* remy-lint: allow wall-clock *)
          let waited = Unix.gettimeofday () -. !last_change in
          if waited > timeout then
            raise (Stalled { completed = done_now; total = job.n; waited_s = waited })
        end
      done);
    Mutex.lock t.m;
    t.job <- None;
    Mutex.unlock t.m

  let map t f xs =
    let n = Array.length xs in
    if n = 0 then [||]
    else begin
      let results = Array.make n None in
      let error = Atomic.make None in
      let run i =
        if Atomic.get error = None then begin
          (* Tasks are pure functions of their input, so a retry either
             recomputes the identical value (transient failure: a domain
             hit by OOM or a signal) or fails identically — results can
             never depend on the retry count.  The chaos point sits
             inside the match so an injected failure or stall exercises
             exactly the retry/watchdog path a real one would. *)
          let rec attempt k =
            match
              Remy_faults.Chaos.hit "pool-task";
              f xs.(i)
            with
            | v -> results.(i) <- Some v
            | exception e ->
              if k <= t.retries then begin
                Atomic.incr pool_retries;
                (match t.on_retry with
                | Some cb -> cb ~task:i ~attempt:k e
                | None -> ());
                attempt (k + 1)
              end
              else begin
                let e =
                  if t.retries = 0 then e
                  else
                    Task_failed
                      { index = i; attempts = k; error = Printexc.to_string e }
                in
                ignore (Atomic.compare_and_set error None (Some e))
              end
          in
          attempt 1
        end
      in
      submit t { run; n; next = Atomic.make 0; finished = Atomic.make 0 };
      (match Atomic.get error with Some e -> raise e | None -> ());
      Array.map (function Some v -> v | None -> assert false) results
    end

  let shutdown t =
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    List.iter Domain.join t.workers

  let with_pool ?retries ?on_retry ?stall_timeout_s ~domains f =
    let t = create ?retries ?on_retry ?stall_timeout_s ~domains () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end
