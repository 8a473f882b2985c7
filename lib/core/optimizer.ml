open Remy_util

type config = {
  model : Net_model.t;
  objective : Objective.t;
  specimens_per_step : int;
  domains : int;
  k_subdivide : int;
  candidate_multipliers : float list;
  rounds_per_rule : int;
  max_epochs : int;
  max_rules : int;
  prune_agreeing : bool;
  wall_budget_s : float;
  seed : int;
  task_retries : int;
  stall_timeout_s : float option;
}

let default_config ?(specimens_per_step = 16) ?domains ?(k_subdivide = 4)
    ?(candidate_multipliers = [ 1.; 8.; 64. ]) ?(rounds_per_rule = 40)
    ?(max_epochs = 16) ?(max_rules = 256) ?(prune_agreeing = false)
    ?(wall_budget_s = 600.) ?(seed = 1) ?(task_retries = 1)
    ?stall_timeout_s ~model ~objective () =
  {
    model;
    objective;
    specimens_per_step;
    domains = (match domains with Some d -> d | None -> Par.recommended_domains ());
    k_subdivide;
    candidate_multipliers;
    rounds_per_rule;
    prune_agreeing;
    max_epochs;
    max_rules;
    wall_budget_s;
    seed;
    task_retries;
    stall_timeout_s;
  }

(* Canonical rendering of every config field that can influence the
   search trajectory.  Fields that provably cannot — [domains],
   [task_retries] and [stall_timeout_s] (tasks are pure), and the
   extendable budgets [max_epochs] / [wall_budget_s] — are deliberately
   excluded, so a checkpoint can be resumed with more budget or
   different parallelism and still continue bit-identically. *)
let config_fingerprint config =
  let b = Buffer.create 256 in
  let s x = Buffer.add_string b x in
  let f x = s (Printf.sprintf "%.17g;" x) in
  let i x = s (Printf.sprintf "%d;" x) in
  let m = config.model in
  s "model:";
  i m.Net_model.min_senders;
  i m.Net_model.max_senders;
  let lo, hi = m.Net_model.link_mbps in
  f lo;
  f hi;
  let lo, hi = m.Net_model.rtt_ms in
  f lo;
  f hi;
  (match m.Net_model.on_process with
  | Net_model.On_seconds x ->
    s "on-seconds:";
    f x
  | Net_model.On_bytes x ->
    s "on-bytes:";
    f x
  | Net_model.On_icsi -> s "on-icsi;");
  f m.Net_model.mean_off_s;
  i m.Net_model.queue_capacity;
  f m.Net_model.sim_duration;
  (* Rendered only when set, so pre-existing dumbbell fingerprints (and
     their checkpoints) stay valid. *)
  (match m.Net_model.topology with
  | Some name ->
    s "topology:";
    s name;
    s ";"
  | None -> ());
  s "objective:";
  f config.objective.Objective.alpha;
  f config.objective.Objective.beta;
  f config.objective.Objective.delta;
  s "search:";
  i config.specimens_per_step;
  i config.k_subdivide;
  List.iter f config.candidate_multipliers;
  i config.rounds_per_rule;
  i config.max_rules;
  s (if config.prune_agreeing then "prune;" else "noprune;");
  i config.seed;
  Checkpoint.hash_hex (Buffer.contents b)

type checkpoint_spec = { dir : string; every_rounds : int }

type report = {
  tree : Rule_tree.t;
  epochs : int;
  rounds : int;
  improvements : int;
  subdivisions : int;
  evaluations : int;
  spec_sims : int;
  spec_skips : int;
  final_score : float;
  interrupted : bool;
}

type event =
  | Improving of { epoch : int; rule : int; uses : int; score : float }
  | Improved of { rule : int; action : Action.t; score : float }
  | Subdivided of { rule : int; at : Memory.t; rules_now : int }
  | Pruned of { collapsed : int; rules_now : int }
  | Epoch_done of Remy_obs.Telemetry.epoch
  | Robustness of Remy_obs.Telemetry.robustness

let pp_event ppf = function
  | Improving { epoch; rule; uses; score } ->
    Format.fprintf ppf "epoch %d: improving rule %d (uses=%d, score %.4f)" epoch
      rule uses score
  | Improved { rule; action; score } ->
    Format.fprintf ppf "  rule %d -> %a (score %.4f)" rule Action.pp action score
  | Subdivided { rule; at; rules_now } ->
    Format.fprintf ppf "epoch: subdivided rule %d at %a (%d rules now)" rule
      Memory.pp at rules_now
  | Pruned { collapsed; rules_now } ->
    Format.fprintf ppf "pruned %d agreeing split(s) (%d rules now)" collapsed
      rules_now
  | Epoch_done e ->
    Format.fprintf ppf
      "epoch %d done: %d rules, score %.4f, %d evals, %d improvements, %.1f s"
      e.Remy_obs.Telemetry.epoch e.Remy_obs.Telemetry.live_rules
      e.Remy_obs.Telemetry.score e.Remy_obs.Telemetry.evaluations
      e.Remy_obs.Telemetry.improvements e.Remy_obs.Telemetry.wall_s
  | Robustness r -> Remy_obs.Telemetry.pp_robustness ppf r

type eval_backend = Evaluator.backend = {
  eval_baseline :
    ?tally:Tally.t ->
    Rule_tree.t ->
    Net_model.specimen list ->
    Evaluator.result * Evaluator.spec_cache array;
  eval_candidates :
    Rule_tree.t ->
    rule:int ->
    Action.t array ->
    Evaluator.spec_cache array ->
    float array * (int * int);
}

let eval_params config =
  let m = config.model in
  {
    Evaluator.objective = config.objective;
    queue_capacity = m.Net_model.queue_capacity;
    duration = m.Net_model.sim_duration;
    topology = m.Net_model.topology;
  }

(* Internal: unwinds the design loops at the next round boundary after a
   stop request; never escapes [design]. *)
exception Stop

let design ?backend ?(progress = fun (_ : event) -> ()) ?checkpoint ?resume
    ?(stop_requested = fun () -> false)
    ?(on_round = fun ~rounds:(_ : int) (_ : Rule_tree.t) -> ()) ?now0 config =
  let fingerprint = config_fingerprint config in
  (match resume with
  | None -> ()
  | Some snap -> (
    match Checkpoint.check_config snap ~config_hash:fingerprint with
    | Ok () -> ()
    | Error e -> invalid_arg ("Optimizer.design: " ^ e)));
  let resumed_elapsed = match resume with Some s -> s.Checkpoint.elapsed_s | None -> 0. in
  (* [now0] lets the caller share one monotonic epoch base between this
     run's telemetry [wall_s] and its manifest, instead of each taking
     its own slightly-later clock reading. *)
  let started =
    (match now0 with Some t -> t | None -> Remy_obs.Clock.now_s ())
    -. resumed_elapsed
  in
  let out_of_time () = Remy_obs.Clock.now_s () -. started > config.wall_budget_s in
  let rng =
    match resume with
    | None -> Prng.create config.seed
    | Some s -> (
      match Prng.of_state s.Checkpoint.rng with
      | Ok g -> g
      | Error e -> invalid_arg ("Optimizer.design: snapshot PRNG: " ^ e))
  in
  let tree =
    match resume with None -> Rule_tree.create () | Some s -> s.Checkpoint.tree
  in
  let restored f default = match resume with Some s -> f s | None -> default in
  let improvements = ref (restored (fun s -> s.Checkpoint.improvements) 0) in
  let subdivisions = ref (restored (fun s -> s.Checkpoint.subdivisions) 0) in
  let evaluations = ref (restored (fun s -> s.Checkpoint.evaluations) 0) in
  let spec_sims = ref (restored (fun s -> s.Checkpoint.spec_sims) 0) in
  let spec_skips = ref (restored (fun s -> s.Checkpoint.spec_skips) 0) in
  let rounds = ref (restored (fun s -> s.Checkpoint.rounds) 0) in
  let last_score = ref (restored (fun s -> s.Checkpoint.last_score) neg_infinity) in
  let global_epoch = ref (restored (fun s -> s.Checkpoint.epoch) 0) in
  let resume_mid, resume_first_rule =
    match resume with
    | Some { Checkpoint.position = Checkpoint.Mid_epoch { first_rule }; _ } ->
      (ref true, first_rule)
    | _ -> (ref false, None)
  in
  let interrupted = ref false in
  (* Worker retries fire on helper domains; buffer them under a mutex
     and surface them as progress events from the submitting domain at
     round boundaries, so [progress] never runs concurrently. *)
  let retry_mutex = Mutex.create () in
  let retry_log = ref [] in
  let note_retry ~task ~attempt e =
    let error = Printexc.to_string e in
    Mutex.lock retry_mutex;
    retry_log := (task, attempt, error) :: !retry_log;
    Mutex.unlock retry_mutex
  in
  let drain_retries () =
    Mutex.lock retry_mutex;
    let pending = List.rev !retry_log in
    retry_log := [];
    Mutex.unlock retry_mutex;
    List.iter
      (fun (task, attempt, error) ->
        progress
          (Robustness (Remy_obs.Telemetry.Worker_retry { task; attempt; error })))
      pending
  in
  (* With an external [backend] (e.g. a distributed coordinator) no
     in-process pool exists. *)
  let pool, backend =
    match backend with
    | Some b -> (None, b)
    | None ->
      let pool =
        Par.Pool.create ~retries:config.task_retries ~on_retry:note_retry
          ?stall_timeout_s:config.stall_timeout_s ~domains:config.domains ()
      in
      (Some pool, Evaluator.on_pool pool (eval_params config) ~incremental:true)
  in
  let save_checkpoint position =
    match checkpoint with
    | None -> ()
    | Some { dir; _ } ->
      let t0 = Remy_obs.Clock.now_s () in
      Remy_obs.Profiler.span "checkpoint" (fun () ->
          Checkpoint.save ~dir
            {
          Checkpoint.config_hash = fingerprint;
          position;
          epoch = !global_epoch;
          rounds = !rounds;
          improvements = !improvements;
          subdivisions = !subdivisions;
          evaluations = !evaluations;
          spec_sims = !spec_sims;
          spec_skips = !spec_skips;
          last_score = !last_score;
          elapsed_s = t0 -. started;
          telemetry_epochs = !global_epoch;
          rng = Prng.state rng;
          tree;
        });
      progress
        (Robustness
           (Remy_obs.Telemetry.Checkpoint_written
              {
                epoch = !global_epoch;
                rounds = !rounds;
                duration_s = Remy_obs.Clock.now_s () -. t0;
                path = Checkpoint.file ~dir;
              }))
  in
  let round_checkpoint position =
    match checkpoint with
    | Some { every_rounds; _ } when every_rounds > 0 && !rounds mod every_rounds = 0
      ->
      save_checkpoint position
    | _ -> ()
  in
  (* Whole-table evaluation; returns the per-specimen cache that
     licenses incremental candidate scoring. *)
  let eval_baseline ?tally specimens =
    incr evaluations;
    let r, cache =
      Remy_obs.Profiler.span "baseline" (fun () ->
          backend.eval_baseline ?tally tree specimens)
    in
    (r.Evaluator.mean_score, cache)
  in
  (* Greedy improvement of one rule's action on fixed specimens
     (step 3).  Returns true if the action changed. *)
  let improve_rule id cache baseline =
    let changed = ref false in
    let current = ref baseline in
    let continue = ref true in
    let rounds = ref 0 in
    while !continue && !rounds < config.rounds_per_rule && not (out_of_time ()) do
      incr rounds;
      let candidates =
        Array.of_list
          (Action.neighbors
             ~multipliers:config.candidate_multipliers
             (Rule_tree.action tree id))
      in
      let run_eval () = backend.eval_candidates tree ~rule:id candidates cache in
      let scores, (sims, skips) =
        Remy_obs.Profiler.span "eval" (fun () ->
            if Remy_obs.Metrics.enabled () then begin
              let t0 = Remy_obs.Clock.now_s () in
              let r = run_eval () in
              Remy_obs.Metrics.record Remy_obs.Metrics.Eval_round
                (Remy_obs.Clock.now_s () -. t0);
              r
            end
            else run_eval ())
      in
      evaluations := !evaluations + Array.length candidates;
      spec_sims := !spec_sims + sims;
      spec_skips := !spec_skips + skips;
      let best = ref (-1) in
      Array.iteri (fun i s -> if s > !current && (!best < 0 || s > scores.(!best)) then best := i) scores;
      if !best >= 0 then begin
        Rule_tree.set_action tree id candidates.(!best);
        current := scores.(!best);
        changed := true;
        incr improvements;
        progress
          (Improved { rule = id; action = candidates.(!best); score = !current })
      end
      else continue := false
    done;
    last_score := !current;
    !changed
  in
  let subdivide_most_used () =
    if config.prune_agreeing then begin
      let collapsed = Rule_tree.collapse_agreeing tree in
      if collapsed > 0 then
        progress (Pruned { collapsed; rules_now = Rule_tree.num_rules tree })
    end;
    if Rule_tree.num_rules tree < config.max_rules then begin
      let specimens = Net_model.draw_many config.model rng config.specimens_per_step in
      let tally =
        Tally.create ~capacity:(Rule_tree.capacity tree)
          ~seed:(config.seed lxor 0xD1F) ()
      in
      ignore (eval_baseline ~tally specimens);
      match Tally.most_used tally ~among:(Rule_tree.live_ids tree) with
      | None -> ()
      | Some id ->
        let at =
          match Tally.median_memory tally id with
          | Some m -> m
          | None -> Memory.zero
        in
        ignore (Rule_tree.subdivide tree id ~at);
        incr subdivisions;
        progress (Subdivided { rule = id; at; rules_now = Rule_tree.num_rules tree })
    end
  in
  let stalled = ref false in
  Fun.protect ~finally:(fun () ->
      (* A [Par.Stalled] pool has a wedged worker domain that can never
         be joined; skip the shutdown (the process is aborting anyway)
         instead of hanging in it. *)
      if not !stalled then Option.iter Par.Pool.shutdown pool)
  @@ fun () ->
  (match resume with
  | Some s ->
    progress
      (Robustness
         (Remy_obs.Telemetry.Resumed_from
            {
              epoch = s.Checkpoint.epoch;
              rounds = s.Checkpoint.rounds;
              elapsed_s = s.Checkpoint.elapsed_s;
              path =
                (match checkpoint with
                | Some { dir; _ } -> Checkpoint.file ~dir
                | None -> "");
            }))
  | None -> ());
  (try
     Remy_obs.Profiler.span "design" @@ fun () ->
     (* Always leave a resumable file behind, even if we are interrupted
        before the first round completes. *)
     save_checkpoint
       (if !resume_mid then Checkpoint.Mid_epoch { first_rule = resume_first_rule }
        else Checkpoint.Epoch_start);
     while !global_epoch < config.max_epochs && not (out_of_time ()) do
       let first_rule = ref None in
       (* Step 1: everything joins the current epoch — unless we are
          resuming mid-epoch, in which case promotion (and the rounds
          already played) happened before the snapshot was taken. *)
       if !resume_mid then begin
         resume_mid := false;
         first_rule := resume_first_rule
       end
       else Rule_tree.promote_all tree !global_epoch;
       (* Steps 2-3: improve most-used rules of this epoch until none
          remain or time runs out. *)
       let continue = ref true in
       while !continue && not (out_of_time ()) do
         let specimens =
           Net_model.draw_many config.model rng config.specimens_per_step
         in
         let tally =
           Tally.create ~capacity:(Rule_tree.capacity tree)
             ~seed:(config.seed lxor !evaluations) ()
         in
         let baseline, cache = eval_baseline ~tally specimens in
         let current_epoch_rules =
           List.filter
             (fun id -> Rule_tree.epoch tree id = !global_epoch)
             (Rule_tree.live_ids tree)
         in
         match Tally.most_used tally ~among:current_epoch_rules with
         | None -> continue := false
         | Some id ->
           if !first_rule = None then first_rule := Some id;
           progress
             (Improving
                {
                  epoch = !global_epoch;
                  rule = id;
                  uses = Tally.count tally id;
                  score = baseline;
                });
           ignore
             (Remy_obs.Profiler.span "round" (fun () ->
                  improve_rule id cache baseline));
           Rule_tree.set_epoch tree id (!global_epoch + 1);
           incr rounds;
           drain_retries ();
           (* A round boundary: every piece of state the future depends
              on is consistent here, so this is where checkpoints are
              taken, post-round observers run, and an interrupt is
              honored.  The chaos point ahead of the stop check lets a
              sigint directive exercise exactly the graceful path a
              user's ^C would. *)
           Remy_faults.Chaos.hit "round-end";
           on_round ~rounds:!rounds tree;
           if stop_requested () then begin
             save_checkpoint (Checkpoint.Mid_epoch { first_rule = !first_rule });
             raise Stop
           end
           else round_checkpoint (Checkpoint.Mid_epoch { first_rule = !first_rule })
       done;
       (* Step 4. *)
       incr global_epoch;
       (* Step 5. *)
       if !global_epoch mod config.k_subdivide = 0 then
         Remy_obs.Profiler.span "subdivide" subdivide_most_used;
       drain_retries ();
       let par = Par.stats () in
       progress
         (Epoch_done
            {
              Remy_obs.Telemetry.epoch = !global_epoch - 1;
              live_rules = Rule_tree.num_rules tree;
              most_used_rule = !first_rule;
              evaluations = !evaluations;
              improvements = !improvements;
              subdivisions = !subdivisions;
              score = !last_score;
              wall_s = Remy_obs.Clock.now_s () -. started;
              domains = config.domains;
              par_tasks = par.Par.pool_tasks;
              par_spawns = par.Par.spawns;
              par_jobs = par.Par.pool_jobs;
              par_helper_tasks = par.Par.pool_helper_tasks;
              spec_sims = !spec_sims;
              spec_skips = !spec_skips;
            });
       save_checkpoint Checkpoint.Epoch_start;
       if stop_requested () then raise Stop
     done
   with
  | Stdlib.Exit -> ()
  | Stop -> interrupted := true
  | Par.Stalled _ as e ->
    (* Do NOT overwrite the checkpoint here: mid-round state is not a
       valid resume point, and the last round-boundary checkpoint is
       already safely on disk. *)
    stalled := true;
    raise e);
  drain_retries ();
  {
    tree;
    epochs = !global_epoch;
    rounds = !rounds;
    improvements = !improvements;
    subdivisions = !subdivisions;
    evaluations = !evaluations;
    spec_sims = !spec_sims;
    spec_skips = !spec_skips;
    final_score = !last_score;
    interrupted = !interrupted;
  }
