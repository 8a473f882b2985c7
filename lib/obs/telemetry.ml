type epoch = {
  epoch : int;
  live_rules : int;
  most_used_rule : int option;
  evaluations : int;
  improvements : int;
  subdivisions : int;
  score : float;
  wall_s : float;
  domains : int;
  par_tasks : int;
  par_spawns : int;
  par_jobs : int;
  par_helper_tasks : int;
  spec_sims : int;
  spec_skips : int;
}

let to_record (e : epoch) : Record.t =
  [
    ("epoch", Record.Int e.epoch);
    ("live_rules", Record.Int e.live_rules);
  ]
  @ (match e.most_used_rule with
    | Some id -> [ ("most_used_rule", Record.Int id) ]
    | None -> [])
  @ [
      ("evaluations", Record.Int e.evaluations);
      ("improvements", Record.Int e.improvements);
      ("subdivisions", Record.Int e.subdivisions);
      ("score", Record.Float e.score);
      ("wall_s", Record.Float e.wall_s);
      ("domains", Record.Int e.domains);
      ("par_tasks", Record.Int e.par_tasks);
      ("par_spawns", Record.Int e.par_spawns);
      ("par_jobs", Record.Int e.par_jobs);
      ("par_helper_tasks", Record.Int e.par_helper_tasks);
      ("spec_sims", Record.Int e.spec_sims);
      ("spec_skips", Record.Int e.spec_skips);
    ]

let write sink e = Sink.emit sink (to_record e)

(* --- robustness events ---------------------------------------------- *)

type worker_event =
  | Worker_joined of { worker : int; addr : string; pid : int }
  | Worker_lost of { worker : int; addr : string; reason : string; requeued : int }
  | Task_reissued of { index : int; from_worker : int; to_worker : int }

type robustness =
  | Checkpoint_written of {
      epoch : int;
      rounds : int;
      duration_s : float;
      path : string;
    }
  | Resumed_from of { epoch : int; rounds : int; elapsed_s : float; path : string }
  | Worker_retry of { task : int; attempt : int; error : string }
  | Table_verified of {
      rounds : int;
      rules : int;
      sound : bool;
      problems : int;
      window_hi : float;
    }
  | Worker of worker_event

let robustness_to_record = function
  | Checkpoint_written { epoch; rounds; duration_s; path } ->
    [
      ("event", Record.Str "checkpoint_written");
      ("epoch", Record.Int epoch);
      ("rounds", Record.Int rounds);
      ("duration_s", Record.Float duration_s);
      ("path", Record.Str path);
    ]
  | Resumed_from { epoch; rounds; elapsed_s; path } ->
    [
      ("event", Record.Str "resumed_from");
      ("epoch", Record.Int epoch);
      ("rounds", Record.Int rounds);
      ("elapsed_s", Record.Float elapsed_s);
      ("path", Record.Str path);
    ]
  | Worker_retry { task; attempt; error } ->
    [
      ("event", Record.Str "worker_retry");
      ("task", Record.Int task);
      ("attempt", Record.Int attempt);
      ("error", Record.Str error);
    ]
  | Table_verified { rounds; rules; sound; problems; window_hi } ->
    [
      ("event", Record.Str "table_verified");
      ("rounds", Record.Int rounds);
      ("rules", Record.Int rules);
      ("sound", Record.Bool sound);
      ("problems", Record.Int problems);
      ("window_hi", Record.Float window_hi);
    ]
  | Worker (Worker_joined { worker; addr; pid }) ->
    [
      ("event", Record.Str "worker_joined");
      ("worker", Record.Int worker);
      ("addr", Record.Str addr);
      ("pid", Record.Int pid);
    ]
  | Worker (Worker_lost { worker; addr; reason; requeued }) ->
    [
      ("event", Record.Str "worker_lost");
      ("worker", Record.Int worker);
      ("addr", Record.Str addr);
      ("reason", Record.Str reason);
      ("requeued", Record.Int requeued);
    ]
  | Worker (Task_reissued { index; from_worker; to_worker }) ->
    [
      ("event", Record.Str "task_reissued");
      ("index", Record.Int index);
      ("from_worker", Record.Int from_worker);
      ("to_worker", Record.Int to_worker);
    ]

let robustness_of_record (r : Record.t) =
  let int k = Option.bind (Record.find k r) Record.to_int in
  let flt k = Option.bind (Record.find k r) Record.to_float in
  let str k = Option.bind (Record.find k r) Record.to_str in
  match str "event" with
  | Some "checkpoint_written" -> (
    match (int "epoch", int "rounds") with
    | Some epoch, Some rounds ->
      Some
        (Checkpoint_written
           {
             epoch;
             rounds;
             duration_s = Option.value ~default:Float.nan (flt "duration_s");
             path = Option.value ~default:"" (str "path");
           })
    | _ -> None)
  | Some "resumed_from" -> (
    match (int "epoch", int "rounds") with
    | Some epoch, Some rounds ->
      Some
        (Resumed_from
           {
             epoch;
             rounds;
             elapsed_s = Option.value ~default:Float.nan (flt "elapsed_s");
             path = Option.value ~default:"" (str "path");
           })
    | _ -> None)
  | Some "worker_retry" -> (
    match (int "task", int "attempt") with
    | Some task, Some attempt ->
      Some
        (Worker_retry
           { task; attempt; error = Option.value ~default:"" (str "error") })
    | _ -> None)
  | Some "table_verified" -> (
    match (int "rounds", int "rules") with
    | Some rounds, Some rules ->
      let sound =
        match Record.find "sound" r with Some (Record.Bool b) -> b | _ -> false
      in
      Some
        (Table_verified
           {
             rounds;
             rules;
             sound;
             problems = Option.value ~default:0 (int "problems");
             window_hi = Option.value ~default:Float.nan (flt "window_hi");
           })
    | _ -> None)
  | Some "worker_joined" -> (
    match int "worker" with
    | Some worker ->
      Some
        (Worker
           (Worker_joined
              {
                worker;
                addr = Option.value ~default:"" (str "addr");
                pid = Option.value ~default:0 (int "pid");
              }))
    | None -> None)
  | Some "worker_lost" -> (
    match int "worker" with
    | Some worker ->
      Some
        (Worker
           (Worker_lost
              {
                worker;
                addr = Option.value ~default:"" (str "addr");
                reason = Option.value ~default:"" (str "reason");
                requeued = Option.value ~default:0 (int "requeued");
              }))
    | None -> None)
  | Some "task_reissued" -> (
    match (int "index", int "from_worker", int "to_worker") with
    | Some index, Some from_worker, Some to_worker ->
      Some (Worker (Task_reissued { index; from_worker; to_worker }))
    | _ -> None)
  | _ -> None

let write_robustness sink e = Sink.emit sink (robustness_to_record e)

let pp_robustness ppf = function
  | Checkpoint_written { path; epoch; rounds; duration_s } ->
    Format.fprintf ppf "checkpoint -> %s (epoch %d, round %d, %.0f ms)" path epoch
      rounds (duration_s *. 1e3)
  | Resumed_from { epoch; rounds; elapsed_s; path = _ } ->
    Format.fprintf ppf
      "resumed from checkpoint: epoch %d, round %d, %.1f s already spent" epoch
      rounds elapsed_s
  | Worker_retry { task; attempt; error } ->
    Format.fprintf ppf "worker task %d failed (attempt %d), retrying: %s" task
      attempt error
  | Table_verified _ -> Format.pp_print_string ppf "table_verified"
  | Worker (Worker_joined { worker; addr; pid }) ->
    Format.fprintf ppf "worker %d joined (%s, pid %d)" worker addr pid
  | Worker (Worker_lost { worker; addr; reason; requeued }) ->
    Format.fprintf ppf "worker %d lost (%s): %s — %d task(s) requeued" worker addr
      reason requeued
  | Worker (Task_reissued { index; from_worker; to_worker }) ->
    Format.fprintf ppf "task %d reissued: worker %d -> worker %d" index from_worker
      to_worker

let of_record (r : Record.t) =
  let int k = Option.bind (Record.find k r) Record.to_int in
  let flt k = Option.bind (Record.find k r) Record.to_float in
  match (int "epoch", int "live_rules", int "evaluations") with
  | Some epoch, Some live_rules, Some evaluations ->
    Some
      {
        epoch;
        live_rules;
        most_used_rule = int "most_used_rule";
        evaluations;
        improvements = Option.value ~default:0 (int "improvements");
        subdivisions = Option.value ~default:0 (int "subdivisions");
        score = Option.value ~default:Float.nan (flt "score");
        wall_s = Option.value ~default:Float.nan (flt "wall_s");
        domains = Option.value ~default:1 (int "domains");
        par_tasks = Option.value ~default:0 (int "par_tasks");
        par_spawns = Option.value ~default:0 (int "par_spawns");
        par_jobs = Option.value ~default:0 (int "par_jobs");
        par_helper_tasks = Option.value ~default:0 (int "par_helper_tasks");
        spec_sims = Option.value ~default:0 (int "spec_sims");
        spec_skips = Option.value ~default:0 (int "spec_skips");
      }
  | _ -> None
