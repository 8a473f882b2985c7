(* The repository benchmark: four closed-loop workloads that between
   them cross every layer of the reproduction, one JSON result per run.

     remy_bench.exe --workload train --seed 42 --seconds 20 --trace 0

   A run sets its workload up several times (the median is [setup_s]),
   checks a reference unit, then runs units of work back to back — one
   design run, one replication of every Fig. 4 scheme, or one incast
   simulation, seeded [seed + 1000 * index] — until [--seconds] have
   passed, checking every unit's output.  [--trace 1] instead runs a
   fixed number of units twice in one process, untraced and then traced,
   and reports the per-layer metrics of the traced pass.  Every layer is
   measured from here: the bench times its calls into the layers' public
   functions and reads what the program already keeps
   ([Remy_obs.Counters], [Par.stats], [Optimizer.report], the
   [Profiler] and [Metrics] it records when switched on, and [Gc]).
   README.md beside this file lists the workloads, the metrics and how
   to compare two commits. *)

open Remy
module Clock = Remy_obs.Clock
module Counters = Remy_obs.Counters
module Record = Remy_obs.Record
module Profiler = Remy_obs.Profiler
module Obs_metrics = Remy_obs.Metrics
module Coordinator = Remy_dist.Coordinator
module Frame = Remy_dist.Frame
module Wire = Remy_dist.Wire
module Schemes = Remy_scenarios.Schemes
module Scenario = Remy_scenarios.Scenario
module Topology = Remy_cc.Topology
module Flow = Remy_sim.Metrics

let now = Clock.now_s

(* --- declared metrics ------------------------------------------------- *)

(* These lists and BENCHMARK.json must agree: the runtest self-test
   checks that every name BENCHMARK.json declares is in a run's record. *)
let end_to_end = [ ("events_per_s", "1/s"); ("setup_s", "s") ]

(* The Fig. 4 schemes in run order, with the metric-name slug of each. *)
let fig4_slugs =
  [
    ("NewReno", "newreno");
    ("Vegas", "vegas");
    ("Cubic", "cubic");
    ("Compound", "compound");
    ("Cubic/sfqCoDel", "cubic-sfqcodel");
    ("XCP", "xcp");
    ("Remy d=0.1", "remy-d0.1");
    ("Remy d=1", "remy-d1");
    ("Remy d=10", "remy-d10");
  ]

let per_layer =
  [
    ("host_cores", "count");
    ("optimizer.rounds", "count");
    ("optimizer.evaluations", "count");
    ("optimizer.subdivisions", "count");
    ("optimizer.evals_per_s", "1/s");
    ("optimizer.self_s", "s");
    ("optimizer.round_p50_s", "s");
    ("optimizer.round_p80_s", "s");
    ("evaluator.baseline_calls", "count");
    ("evaluator.baseline_s", "s");
    ("evaluator.candidate_calls", "count");
    ("evaluator.candidate_s", "s");
    ("evaluator.candidate_p50_s", "s");
    ("evaluator.candidate_p80_s", "s");
    ("evaluator.spec_sims", "count");
    ("evaluator.spec_skips", "count");
    ("evaluator.skip_frac", "frac");
    ("par.pool_size", "count");
    ("par.pool_jobs", "count");
    ("par.pool_tasks", "count");
    ("par.helper_frac", "frac");
    ("par.retries", "count");
    ("par.busy_frac", "frac");
    ("par.idle_s", "s");
    ("dist.workers", "count");
    ("dist.baseline_s", "s");
    ("dist.candidate_s", "s");
    ("dist.candidate_p50_s", "s");
    ("dist.candidate_p80_s", "s");
    ("dist.tasks", "count");
    ("dist.reissues", "count");
    ("dist.workers_lost", "count");
    ("dist.tree_sync_bytes", "B");
    ("dist.frame_codec_us", "us");
    ("sim.runs", "count");
    ("sim.run_p50_s", "s");
    ("sim.run_p90_s", "s");
    ("sim.events", "count");
    ("sim.events_per_s", "1/s");
    ("sim.sim_s_per_s", "s/s");
    ("sim.pkt_pool_hit_frac", "frac");
    ("cc.acks", "count");
    ("cc.acks_per_s", "1/s");
    ("rule_tree.rules", "count");
    ("rule_tree.lookups", "count");
    ("rule_tree.lookups_per_ack", "ratio");
    ("rule_tree.lookup_ns", "ns");
    ("rule_tree.descent_ns", "ns");
    ("rule_tree.index_builds", "count");
    ("rule_tree.lookup_share", "frac");
    ("scenarios.table_load_s", "s");
  ]
  @ List.map (fun (_, slug) -> ("scenarios.scheme_s." ^ slug, "s")) fig4_slugs
  @ [
      ("gc.minor_words_per_event", "words");
      ("gc.major_collections", "count");
      ("gc.top_heap_mb", "MiB");
      ("gc.peak_rss_mb", "MiB");
      ("obs.trace_overhead_frac", "frac");
    ]

(* --- per-pass accumulator --------------------------------------------- *)

(* Everything one pass (a sequence of units) measures: named sums (keyed
   by metric name where a metric is a plain sum), latency samples,
   output digests, failed checks, and — in a traced pass — bench-side
   spans and the tallies whose memory points time the rule lookups. *)
type acc = {
  traced : bool;
  required_digests : bool;
      (** a unit without a committed digest is an error (reference checks) *)
  sums : (string, float) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
  mutable digests : string list;  (** one per unit, newest first *)
  mutable errors : string list;
  mutable spans : Record.t list;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable next_span : int;
  mutable unit_index : int;
  mutable lookup_sets : (string * (Rule_tree.t * Tally.t)) list;
  round_cap : int;  (** train: stop each design run after this many rounds *)
}

let create_acc ?(required_digests = false) ?(round_cap = max_int) ~traced () =
  {
    traced;
    required_digests;
    round_cap;
    sums = Hashtbl.create 64;
    samples = Hashtbl.create 16;
    digests = [];
    errors = [];
    spans = [];
    stack = [];
    next_span = 1;
    unit_index = 0;
    lookup_sets = [];
  }

let get acc k = Option.value ~default:0. (Hashtbl.find_opt acc.sums k)
let set acc k v = Hashtbl.replace acc.sums k v
let add acc k v = set acc k (get acc k +. v)
let addi acc k n = add acc k (float_of_int n)

let sample acc k v =
  Hashtbl.replace acc.samples k
    (v :: Option.value ~default:[] (Hashtbl.find_opt acc.samples k))

let quantile acc k q =
  match Hashtbl.find_opt acc.samples k with
  | None | Some [] -> 0.
  | Some l -> Remy_util.Stats.quantile (Array.of_list l) q

let check acc ok fmt =
  Printf.ksprintf (fun m -> if not ok then acc.errors <- m :: acc.errors) fmt

let ratio a b = if b > 0. then a /. b else 0.

let record_span acc ~name ~parent ~id t0 t1 =
  acc.spans <-
    [
      ("run", Record.Int acc.unit_index);
      ("id", Record.Int id);
      ("parent", Record.Int parent);
      ("name", Record.Str name);
      ("start_s", Record.Float t0);
      ("end_s", Record.Float t1);
    ]
    :: acc.spans

let fresh_span acc =
  let id = acc.next_span in
  acc.next_span <- id + 1;
  id

let parent_span acc = match acc.stack with p :: _ -> p | [] -> 0

(* A closed interval under the innermost open span: round boundaries
   arrive as callbacks, not as calls the bench can wrap. *)
let interval acc name t0 t1 =
  if acc.traced then
    record_span acc ~name ~parent:(parent_span acc) ~id:(fresh_span acc) t0 t1

let span acc name f =
  if not acc.traced then f ()
  else begin
    let id = fresh_span acc and parent = parent_span acc in
    acc.stack <- id :: acc.stack;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        acc.stack <- List.filter (fun i -> i <> id) acc.stack;
        record_span acc ~name ~parent ~id t0 (now ()))
  end

let counters_since c0 = Counters.diff (Counters.snapshot ()) c0

(* Total wall time and entry count of every [Profiler] span called
   [name], across every domain's profile. *)
let profiled roots name =
  let rec walk (wall, count) (n : Profiler.node) =
    let here =
      if n.name = name then (wall +. n.total_s, count + n.count) else (wall, count)
    in
    Hashtbl.fold (fun _ c a -> walk a c) n.children here
  in
  List.fold_left walk (0., 0) roots

(* Simulation work done in this process, from a counter delta. *)
let count_sims acc (d : Counters.snapshot) =
  addi acc "sim.events" d.Counters.events_run;
  addi acc "cc.acks" d.Counters.acks_processed;
  addi acc "pkt_hits" d.Counters.pool_hits;
  addi acc "pkt_misses" d.Counters.pool_misses;
  addi acc "rule_tree.index_builds" d.Counters.index_builds

let tally_count tally = List.fold_left (fun s (_, c, _) -> s + c) 0 (Tally.export tally)

(* Rule lookups, counted by a tally attached at the CC boundary of a
   traced simulation ([Counters.lookups] is never bumped).  The acks of
   the same simulations are kept beside them: Remycc and Fleet consult
   the table once per ack that reaches a live connection plus once per
   connection start, so acks only approximate lookups, and
   [rule_tree.lookups_per_ack] says by how much.  The latest tally per
   [key] keeps its memory points to time the two lookup paths later. *)
let count_lookups acc ~key ~acks tree tally =
  addi acc "rule_tree.lookups" (tally_count tally);
  addi acc "tallied_lookups" (tally_count tally);
  addi acc "tallied_acks" acks;
  acc.lookup_sets <- (key, (tree, tally)) :: List.remove_assoc key acc.lookup_sets

(* Nanoseconds per lookup over the kept memory points, compiled index
   and tree descent. *)
let time_lookups acc =
  List.iter
    (fun (_, (tree, tally)) ->
      let pts =
        Array.of_list (List.concat_map (fun (_, _, kept) -> kept) (Tally.export tally))
      in
      let n = Array.length pts in
      if n > 0 then begin
        let reps = max 1 (200_000 / n) in
        let time f =
          let t0 = now () in
          let hits = ref 0 in
          for _ = 1 to reps do
            Array.iter (fun m -> hits := !hits + f tree m) pts
          done;
          ignore (Sys.opaque_identity !hits);
          1e9 *. (now () -. t0)
        in
        addi acc "lookup_calls" (reps * n);
        add acc "lookup_ns_total" (time Rule_tree.lookup);
        add acc "descent_ns_total" (time Rule_tree.lookup_uncompiled)
      end)
    acc.lookup_sets

(* --- output checks ----------------------------------------------------- *)

type size = {
  label : string;
  epochs : int;  (** train: global epochs per design run *)
  fig4_reps : int;  (** eval_fig4: replications of each scheme per unit *)
  fig4_s : float;  (** eval_fig4: simulated seconds per replication *)
  incast_flows : int;
  incast_s : float;
}

let full =
  {
    label = "full";
    epochs = 2;
    fig4_reps = 1;
    fig4_s = 100.;
    incast_flows = 4096;
    incast_s = 10.;
  }

let smoke =
  {
    label = "smoke";
    epochs = 1;
    fig4_reps = 2;
    fig4_s = 5.;
    incast_flows = 256;
    incast_s = 1.;
  }

let bench_dir = "bench/e2e"
let out_dir = Filename.concat bench_dir "_out"

(* Committed digests of unit outputs, one ["<family> <size> <seed> <md5>"]
   per line.  train_dist checks against train's lines: its trees must be
   byte-identical. *)
let expected_digests =
  lazy
    (let path = Filename.concat bench_dir "expected.digests" in
     let ic = open_in path in
     let rec go acc =
       match input_line ic with
       | exception End_of_file ->
           close_in ic;
           acc
       | line -> (
           match String.split_on_char ' ' (String.trim line) with
           | [ family; size; seed; md5 ] -> go (((family, size, seed), md5) :: acc)
           | _ -> go acc)
     in
     go [])

let check_digest acc ~family ~size ~seed text =
  let md5 = Digest.to_hex (Digest.string text) in
  acc.digests <- md5 :: acc.digests;
  let key = (family, size.label, string_of_int seed) in
  match List.assoc_opt key (Lazy.force expected_digests) with
  | Some want ->
      check acc (want = md5) "%s %s seed %d: digest %s, expected %s" family size.label
        seed md5 want
  | None ->
      check acc (not acc.required_digests) "%s %s seed %d: no expected digest (got %s)"
        family size.label seed md5

(* Tables are loaded the way a user's run loads them: validated, and a
   missing table is a failed run (never a silently trained fallback). *)
let load_table name =
  let path = Printf.sprintf "data/%s.rules" name in
  let t0 = now () in
  match Rule_tree.load_validated path with
  | Ok tree -> (tree, now () -. t0)
  | Error e -> failwith (Printf.sprintf "cannot load %s: %s" path e)

(* --- workloads ---------------------------------------------------------- *)

(* A set-up workload.  [run_unit] runs and checks unit [index] of seed
   [seed], adding into the pass's accumulator; [end_pass] folds in, after
   a traced pass, what can only be read once it is over (the profiler's
   and histograms' totals). *)
type session = {
  static : (string * float) list;  (** per-layer values fixed at set-up *)
  run_unit : acc -> size -> seed:int -> index:int -> deadline:float -> unit;
  end_pass : acc -> unit;
  close : unit -> unit;
}

type workload = {
  name : string;
  default_seed : int;
  reference : size;  (** size of the reference unit checked after set-up *)
  trace_units : int;  (** units per pass of a [--trace 1] run *)
  setup : unit -> session;
}

let unit_seed ~seed ~index = seed + (1000 * index)

(* --- train and train_dist ------------------------------------------------- *)

let train_seed = 42

(* The design config both train workloads share; a unit sets its own
   seed and epoch budget. *)
let train_config () =
  Optimizer.default_config ~specimens_per_step:4 ~domains:2 ~k_subdivide:1
    ~candidate_multipliers:[ 1.; 8. ] ~rounds_per_rule:2 ~wall_budget_s:infinity
    ~seed:train_seed
    ~model:(Net_model.onex ~sim_duration:1.0 ())
    ~objective:(Objective.proportional ~delta:1.0) ()

let unit_config (base : Optimizer.config) ~size ~seed =
  { base with Optimizer.seed; max_epochs = size.epochs }

(* The design loop's own account of a traced pass, read off the
   [Profiler] spans and [Eval_round] histogram that [Optimizer.design]
   records while they are switched on: its "baseline" calls and its
   "eval" calls (one candidate round each) become [<layer>.baseline_*]
   and [<layer>.candidate_*], whichever engine served them. *)
let read_design_profile acc ~layer =
  let roots = Profiler.snapshot () in
  let baseline_s, baselines = profiled roots "baseline"
  and candidate_s, rounds = profiled roots "eval" in
  set acc (layer ^ ".baseline_s") baseline_s;
  set acc (layer ^ ".baseline_calls") (float_of_int baselines);
  set acc (layer ^ ".candidate_s") candidate_s;
  set acc (layer ^ ".candidate_calls") (float_of_int rounds);
  let h = Obs_metrics.merged Obs_metrics.Eval_round in
  set acc (layer ^ ".candidate_p50_s") (Remy_obs.Histogram.quantile h 0.5);
  set acc (layer ^ ".candidate_p80_s") (Remy_obs.Histogram.quantile h 0.8)

(* The optimizer/coordinator boundary of a dist run: count the
   simulations each call hands to the workers (the attempted operations)
   and, traced, mark the call as a span.  [on_baseline] sees the tree
   each baseline syncs. *)
let dist_backend acc ~duration ~on_baseline (b : Optimizer.eval_backend) =
  let tasks n =
    addi acc "dist.tasks" n;
    addi acc "sim.runs" n;
    add acc "sim_s" (float_of_int n *. duration)
  in
  {
    Optimizer.eval_baseline =
      (fun ?tally tree specs ->
        tasks (List.length specs);
        on_baseline tree;
        span acc "dist.baseline" (fun () -> b.eval_baseline ?tally tree specs));
    eval_candidates =
      (fun tree ~rule candidates cache ->
        tasks
          (Array.length candidates
          * Array.length (Evaluator.resim_indices ~incremental:true ~rule cache));
        span acc "dist.candidate" (fun () -> b.eval_candidates tree ~rule candidates cache));
  }

(* One design run.  It stops at the round boundary where another round
   as long as the last would overrun [deadline] — unless a committed
   digest exists for its seed, which needs the whole run — and after
   [acc.round_cap] rounds; a stopped run's tree still gets the
   structural checks. *)
let train_unit acc ~base ~backend ~size ~seed ~index ~deadline =
  let useed = unit_seed ~seed ~index in
  let whole =
    List.mem_assoc ("train", size.label, string_of_int useed) (Lazy.force expected_digests)
  in
  let config = unit_config base ~size ~seed:useed in
  let t0 = now () in
  let last_round = ref t0 and last_len = ref 0. and rounds_done = ref 0 in
  let on_round ~rounds _ =
    let t = now () in
    interval acc "round" !last_round t;
    sample acc "round" (t -. !last_round);
    last_len := t -. !last_round;
    last_round := t;
    rounds_done := rounds
  in
  let stop_requested () =
    !rounds_done >= acc.round_cap || ((not whole) && now () +. !last_len > deadline)
  in
  let report =
    span acc "design" (fun () -> Optimizer.design ?backend ~on_round ~stop_requested config)
  in
  let wall = now () -. t0 in
  add acc "wall" wall;
  addi acc "optimizer.rounds" report.Optimizer.rounds;
  addi acc "optimizer.evaluations" report.Optimizer.evaluations;
  addi acc "optimizer.subdivisions" report.Optimizer.subdivisions;
  addi acc "evaluator.spec_sims" report.Optimizer.spec_sims;
  addi acc "evaluator.spec_skips" report.Optimizer.spec_skips;
  let tree = report.Optimizer.tree in
  set acc "rule_tree.rules" (float_of_int (Rule_tree.num_rules tree));
  (match Rule_tree.validate tree with
  | Ok () -> ()
  | Error e -> check acc false "train seed %d: invalid tree: %s" useed e);
  check acc (report.Optimizer.evaluations > 0) "train seed %d: no evaluations" useed;
  let text = Remy_util.Sexp.to_string (Rule_tree.to_sexp_full tree) in
  if report.Optimizer.epochs = size.epochs && not report.Optimizer.interrupted then
    check_digest acc ~family:"train" ~size ~seed:useed text
  else acc.digests <- Digest.to_hex (Digest.string text) :: acc.digests;
  tree

(* Rule lookups of a traced train pass.  Its simulations run inside
   [design], where no tally can be attached, so they are counted as the
   pass's acks times the lookups per ack of a tallied evaluation of the
   last tree the pass trained, on specimens drawn from the same model.
   That tally's memory points also time the two lookup paths. *)
let train_lookups acc (config : Optimizer.config) tree =
  let m = config.Optimizer.model and seed = config.Optimizer.seed in
  let specs =
    Net_model.draw_many m (Remy_util.Prng.create seed) config.Optimizer.specimens_per_step
  in
  let tally = Tally.create ~capacity:(Rule_tree.capacity tree) ~seed () in
  let c0 = Counters.snapshot () in
  ignore
    (Evaluator.score ~tally ?topology:m.Net_model.topology ~domains:1
       ~objective:config.Optimizer.objective ~queue_capacity:m.Net_model.queue_capacity
       ~duration:m.Net_model.sim_duration tree specs);
  count_lookups acc ~key:"train" ~acks:(counters_since c0).Counters.acks_processed tree tally;
  set acc "rule_tree.lookups"
    (get acc "cc.acks" *. ratio (get acc "tallied_lookups") (get acc "tallied_acks"))

(* A train unit calls [Optimizer.design] as [remy_train] does: the
   optimizer starts, uses and shuts down its own [Par.Pool], whose size
   is read off [Par.stats] (the submitting domain plus the helpers the
   run spawned).  Set-up is building the config every unit derives its
   own from. *)
let train_setup () =
  let base = train_config () in
  let last_tree = ref None in
  {
    static = [];
    run_unit =
      (fun acc size ~seed ~index ~deadline ->
        let c0 = Counters.snapshot () and p0 = Par.stats () in
        Fun.protect
          (fun () ->
            last_tree :=
              Some (train_unit acc ~base ~backend:None ~size ~seed ~index ~deadline))
          ~finally:(fun () ->
            count_sims acc (counters_since c0);
            let p = Par.stats () in
            set acc "par.pool_size" (float_of_int (1 + p.Par.spawns - p0.Par.spawns));
            addi acc "attempted" (p.Par.pool_tasks - p0.Par.pool_tasks);
            addi acc "failed" (p.Par.pool_retries - p0.Par.pool_retries);
            addi acc "par.pool_jobs" (p.Par.pool_jobs - p0.Par.pool_jobs);
            addi acc "par.pool_tasks" (p.Par.pool_tasks - p0.Par.pool_tasks);
            addi acc "par.retries" (p.Par.pool_retries - p0.Par.pool_retries);
            addi acc "helper_tasks" (p.Par.pool_helper_tasks - p0.Par.pool_helper_tasks)));
    end_pass =
      (fun acc ->
        read_design_profile acc ~layer:"evaluator";
        let wall, runs = profiled (Profiler.snapshot ()) "sim" in
        let runs = float_of_int runs in
        add acc "sim_wall" wall;
        set acc "sim.runs" runs;
        set acc "sim_s" (runs *. base.Optimizer.model.Net_model.sim_duration);
        (* Every simulation is a baseline specimen or a candidate one. *)
        let asked =
          get acc "evaluator.spec_sims"
          +. (get acc "evaluator.baseline_calls"
             *. float_of_int base.Optimizer.specimens_per_step)
        in
        check acc (runs = asked) "train: %g simulations profiled, %g asked for" runs asked;
        let h = Obs_metrics.merged Obs_metrics.Sim_wall in
        set acc "sim.run_p50_s" (Remy_obs.Histogram.quantile h 0.5);
        set acc "sim.run_p90_s" (Remy_obs.Histogram.quantile h 0.9);
        Option.iter (train_lookups acc base) !last_tree);
    close = ignore;
  }

(* Distributed workers are this executable re-exec'd with
   [worker_flag FILE [traced]]: each serves the wire protocol on stdin
   and, at shutdown, writes its own counters (and, traced, its
   simulation time) to FILE — the only view of the simulations it ran,
   since lib/dist ships no metrics back. *)
let worker_flag = "--dist-worker-child"

let worker_main ~out ~traced =
  if traced then Profiler.enable ();
  match Remy_dist.Worker.serve Unix.stdin with
  | () ->
      let wall, runs = profiled (Profiler.snapshot ()) "sim" in
      let sink = Remy_obs.Sink.to_file out in
      Remy_obs.Sink.emit sink
        (Counters.to_record (Counters.snapshot ())
        @ [ ("sim_wall_s", Record.Float wall); ("sim_runs", Record.Int runs) ]);
      Remy_obs.Sink.close sink;
      exit 0
  | exception Remy_dist.Worker.Protocol_error m ->
      prerr_endline m;
      exit 1

let dist_workers = 2

(* The started workers of one unit, and what their coordinator saw. *)
type workers = {
  coord : Coordinator.t;
  files : string list;  (** each worker's counter file *)
  useed : int;
  traced : bool;
  lost : int ref;
  reissued : int ref;
}

(* Every unit runs on workers started for it (the handshake pins its
   config, seed included) and shut down after it, so their counter files
   attribute simulations to the unit that ran them.  Set-up starts the
   workers of the reference unit: spawning them and the handshake are
   the set-up time; later units start theirs outside the timed design
   call. *)
let dist_setup () =
  let base = train_config () in
  let model = base.Optimizer.model in
  let duration = model.Net_model.sim_duration in
  let params =
    {
      Wire.objective = base.Optimizer.objective;
      queue_capacity = model.Net_model.queue_capacity;
      duration;
      topology = model.Net_model.topology;
    }
  in
  let spawned = ref 0 in
  let start ~traced ~useed =
    let lost = ref 0 and reissued = ref 0 in
    let on_event = function
      | Coordinator.Worker_lost _ -> incr lost
      | Coordinator.Task_reissued _ -> incr reissued
      | Coordinator.Worker_joined _ -> ()
    in
    let files =
      List.init dist_workers (fun _ ->
          incr spawned;
          Printf.sprintf "%s/worker-%d-%d.json" out_dir (Unix.getpid ()) !spawned)
    in
    (* The fingerprint leaves out the epoch budget, so one hash serves
       every unit size. *)
    let coord =
      Coordinator.create ~on_event ~params
        ~config_hash:
          (Optimizer.config_fingerprint (unit_config base ~size:full ~seed:useed))
        ~workers:
          (List.map
             (fun f ->
               Coordinator.Spawn
                 ([ Sys.executable_name; worker_flag; f ] @ if traced then [ "traced" ] else []))
             files)
        ()
    in
    { coord; files; useed; traced; lost; reissued }
  in
  (* Shut the workers down and collect the records they wrote. *)
  let stop w =
    Coordinator.shutdown w.coord;
    List.filter_map
      (fun file ->
        let r =
          match Remy_obs.Sink.read_file file with Ok [ r ] -> Some r | Ok _ | Error _ -> None
        in
        (try Sys.remove file with Sys_error _ -> ());
        r)
      w.files
  in
  let ready = ref (Some (start ~traced:false ~useed:train_seed)) in
  {
    static = [ ("dist.workers", float_of_int dist_workers) ];
    run_unit =
      (fun acc size ~seed ~index ~deadline ->
        let useed = unit_seed ~seed ~index in
        let w =
          match !ready with
          | Some w when w.useed = useed && w.traced = acc.traced ->
              ready := None;
              w
          | _ -> start ~traced:acc.traced ~useed
        in
        let gen = ref 0 in
        let tasks0 = get acc "dist.tasks" in
        let records = ref [] in
        Fun.protect
          ~finally:(fun () -> records := stop w)
          (fun () ->
            let on_baseline tree =
              incr gen;
              if acc.traced then
                let frame = Frame.encode (Wire.to_sexp (Wire.Tree { gen = !gen; tree })) in
                addi acc "dist.tree_sync_bytes"
                  (Coordinator.live_workers w.coord * String.length frame)
            in
            let backend =
              dist_backend acc ~duration ~on_baseline
                (Coordinator.backend w.coord ~incremental:true)
            in
            let tree =
              train_unit acc ~base ~backend:(Some backend) ~size ~seed ~index ~deadline
            in
            if acc.traced && index = 0 then begin
              (* Frame codec cost of one tree sync of the trained table. *)
              let msg = Wire.to_sexp (Wire.Tree { gen = 1; tree }) in
              let reps = 50 in
              let t0 = now () in
              for _ = 1 to reps do
                match Frame.decode (Frame.encode msg) ~pos:0 with
                | Ok _ -> ()
                | Error e -> check acc false "frame codec: %s" e
              done;
              set acc "dist.frame_codec_us" (1e6 *. (now () -. t0) /. float_of_int reps)
            end);
        let lost = !(w.lost) and reissued = !(w.reissued) in
        check acc
          (List.length !records = dist_workers - lost)
          "train_dist: %d worker counter records for %d workers" (List.length !records)
          (dist_workers - lost);
        List.iter
          (fun r ->
            (match Counters.of_record r with
            | Some c -> count_sims acc c
            | None -> check acc false "train_dist: malformed worker counters");
            match Option.bind (Record.find "sim_wall_s" r) Record.to_float with
            | Some wall -> add acc "sim_wall" wall
            | None -> check acc false "train_dist: worker record without sim_wall_s")
          !records;
        add acc "attempted" (get acc "dist.tasks" -. tasks0 +. float_of_int reissued);
        addi acc "failed" (lost + reissued);
        addi acc "dist.reissues" reissued;
        addi acc "dist.workers_lost" lost);
    end_pass = (fun acc -> read_design_profile acc ~layer:"dist");
    close =
      (fun () ->
        Option.iter (fun w -> ignore (stop w)) !ready;
        ready := None);
  }

(* --- eval_fig4 ------------------------------------------------------------ *)

let fig4_link_mbps = 15.

let fig4_setup () =
  let tables =
    List.map
      (fun (label, file) -> (label, load_table file))
      [ ("Remy d=0.1", "delta01"); ("Remy d=1", "delta1"); ("Remy d=10", "delta10") ]
  in
  let schemes =
    Schemes.fig4_baselines
    @ List.map (fun (name, (tree, _)) -> Schemes.remy ~name tree) tables
  in
  assert (List.map (fun s -> s.Schemes.name) schemes = List.map fst fig4_slugs);
  {
    static =
      [
        ("scenarios.table_load_s", List.fold_left (fun s (_, (_, dt)) -> s +. dt) 0. tables);
        ( "rule_tree.rules",
          float_of_int
            (List.fold_left (fun s (_, (t, _)) -> s + Rule_tree.num_rules t) 0 tables) );
      ];
    run_unit =
      (fun acc size ~seed ~index ~deadline:_ ->
        let base_seed = unit_seed ~seed ~index in
        let scenario =
          Scenario.make ~service:(Remy_cc.Dumbbell.Rate_mbps fig4_link_mbps)
            ~n:8 ~rtt:0.150
            ~workload:(Remy_sim.Workload.by_bytes ~mean_bytes:100e3 ~mean_off:0.5)
            ~duration:size.fig4_s ~replications:size.fig4_reps ~base_seed ()
        in
        let text = Buffer.create 4096 in
        List.iter
          (fun (scheme : Schemes.t) ->
            let slug = List.assoc scheme.Schemes.name fig4_slugs in
            (* Traced, RemyCC schemes get a tally at the CC boundary;
               results are identical with or without one. *)
            let tally =
              match scheme.Schemes.tree with
              | Some tree when acc.traced ->
                  let capacity = Rule_tree.capacity tree in
                  Some (tree, Tally.create ~capacity ~seed:base_seed ())
              | _ -> None
            in
            let run_as =
              match tally with
              | Some (tree, t) -> { scheme with factory = Remycc.factory ~tally:t tree }
              | None -> scheme
            in
            addi acc "attempted" size.fig4_reps;
            let c0 = Counters.snapshot () in
            let t0 = now () in
            let run () = Scenario.run_scheme scenario run_as in
            match span acc ("scheme." ^ slug) run with
            | exception e ->
                addi acc "failed" size.fig4_reps;
                check acc false "%s seed %d raised %s" scheme.Schemes.name base_seed
                  (Printexc.to_string e)
            | summary ->
                let dt = now () -. t0 in
                let d = counters_since c0 in
                count_sims acc d;
                (match tally with
                | Some (tree, t) ->
                    count_lookups acc ~key:slug ~acks:d.Counters.acks_processed tree t
                | None -> ());
                add acc "wall" dt;
                add acc "sim_wall" dt;
                add acc ("scenarios.scheme_s." ^ slug) dt;
                addi acc "sim.runs" size.fig4_reps;
                add acc "sim_s" (float_of_int size.fig4_reps *. size.fig4_s);
                for _ = 1 to size.fig4_reps do
                  sample acc "sim.run" (dt /. float_of_int size.fig4_reps)
                done;
                let pts = (summary : Scenario.summary).points in
                check acc (Array.length pts > 0) "%s seed %d: no points" scheme.Schemes.name
                  base_seed;
                Buffer.add_string text scheme.Schemes.name;
                Buffer.add_char text '\n';
                Array.iter
                  (fun (p : Scenario.point) ->
                    let tput = p.tput_mbps and qdelay = p.qdelay_ms in
                    check acc
                      (Float.is_finite tput && tput >= 0. && tput <= fig4_link_mbps)
                      "%s seed %d: throughput %g Mbps outside [0, %g]" scheme.Schemes.name
                      base_seed tput fig4_link_mbps;
                    check acc (Float.is_finite qdelay && qdelay >= 0.)
                      "%s seed %d: queueing delay %g ms" scheme.Schemes.name base_seed qdelay;
                    Buffer.add_string text (Printf.sprintf "%.17g %.17g\n" tput qdelay))
                  pts)
          schemes;
        check_digest acc ~family:"eval_fig4" ~size ~seed:base_seed (Buffer.contents text));
    end_pass = ignore;
    close = ignore;
  }

(* --- scale_incast ------------------------------------------------------------ *)

let incast_mbps = 1000.

let incast_setup () =
  let tree, load_s = load_table "delta1" in
  {
    static =
      [
        ("scenarios.table_load_s", load_s);
        ("rule_tree.rules", float_of_int (Rule_tree.num_rules tree));
      ];
    run_unit =
      (fun acc size ~seed ~index ~deadline:_ ->
        let useed = unit_seed ~seed ~index in
        let config =
          Topology.incast ~bottleneck_mbps:incast_mbps ~rtt_s:8e-3 ~burst_kb:1.5
            ~period_s:0.02 ~n:size.incast_flows ~cc:(Remycc.factory tree)
            ~duration:size.incast_s ~seed:useed ()
        in
        let tally =
          if acc.traced then
            Some (Tally.create ~capacity:(Rule_tree.capacity tree) ~seed:useed ())
          else None
        in
        let sender_factory = Fleet.factory ?tally tree in
        addi acc "attempted" 1;
        let c0 = Counters.snapshot () in
        let t0 = now () in
        match span acc "topology.run" (fun () -> Topology.run ~sender_factory config) with
        | exception e ->
            addi acc "failed" 1;
            check acc false "incast seed %d raised %s" useed (Printexc.to_string e)
        | (r : Topology.result) ->
            let dt = now () -. t0 in
            let d = counters_since c0 in
            count_sims acc d;
            Option.iter
              (count_lookups acc ~key:"incast" ~acks:d.Counters.acks_processed tree)
              tally;
            add acc "wall" dt;
            add acc "sim_wall" dt;
            addi acc "sim.runs" 1;
            add acc "sim_s" size.incast_s;
            sample acc "sim.run" dt;
            let flows = r.flows in
            check acc (r.received <= r.delivered) "incast seed %d: %d received > %d delivered"
              useed r.received r.delivered;
            check acc (Array.length flows = size.incast_flows) "incast seed %d: %d flows"
              useed (Array.length flows);
            let bytes =
              Array.fold_left (fun s (f : Flow.flow_summary) -> s + f.bytes) 0 flows
            in
            check acc
              (float_of_int bytes *. 8. <= incast_mbps *. 1e6 *. size.incast_s)
              "incast seed %d: %d bytes exceed link capacity" useed bytes;
            let text = Buffer.create (64 * Array.length flows) in
            Buffer.add_string text
              (Printf.sprintf "%d %d %d\n" r.drops r.delivered r.received);
            Array.iter
              (fun (f : Flow.flow_summary) ->
                check acc
                  (Float.is_finite f.throughput_mbps && f.throughput_mbps >= 0.)
                  "incast seed %d: flow throughput %g" useed f.throughput_mbps;
                Buffer.add_string text
                  (Printf.sprintf "%.17g %.17g %d %d %.17g\n" f.throughput_mbps
                     f.mean_queueing_delay_ms f.bytes f.packets f.on_time))
              flows;
            check_digest acc ~family:"scale_incast" ~size ~seed:useed (Buffer.contents text));
    end_pass = ignore;
    close = ignore;
  }

(* Reference units are as small as still exercises the workload: a full
   Fig. 4 replication, because 5 s horizons rarely see a loss. *)
let workloads =
  [
    {
      name = "train";
      default_seed = train_seed;
      reference = smoke;
      trace_units = 1;
      setup = train_setup;
    };
    {
      name = "train_dist";
      default_seed = train_seed;
      reference = smoke;
      trace_units = 1;
      setup = dist_setup;
    };
    {
      name = "eval_fig4";
      default_seed = 7000;
      reference = full;
      trace_units = 16;
      setup = fig4_setup;
    };
    {
      name = "scale_incast";
      default_seed = 71;
      reference = smoke;
      trace_units = 4;
      setup = incast_setup;
    };
  ]

(* --- one run ------------------------------------------------------------- *)

(* Run units 0, 1, ... until [units] are done or [deadline] has passed
   (unit 0 always runs), sampling each unit's simulated events per
   second of its timed calls. *)
let run_pass s acc size ~seed ~units ~deadline =
  let i = ref 0 in
  while !i < units && (!i = 0 || now () < deadline) do
    acc.unit_index <- !i;
    let events = get acc "sim.events" and wall = get acc "wall" in
    (try span acc "unit" (fun () -> s.run_unit acc size ~seed ~index:!i ~deadline)
     with e ->
       addi acc "failed" 1;
       check acc false "unit %d raised %s" !i (Printexc.to_string e));
    if get acc "wall" > wall then
      sample acc "unit_rate" ((get acc "sim.events" -. events) /. (get acc "wall" -. wall));
    incr i
  done

(* Set up repeatedly and keep the last session; [setup_s] is the median
   time of one set-up.  Set-ups are timed in batches of [n], with [n]
   doubled (untimed) until a batch spans 0.1 ms, so that the two clock
   reads are a negligible part of a set-up shorter than they are; and
   no longer, so that the sessions a batch holds rarely outlive a minor
   collection.  At least [min_batches] batches run, and until [min_s]
   seconds have been timed.  Closing the sessions not kept is not
   timed. *)
let timed_setup w ~min_batches ~min_s =
  let batch n =
    let made = ref [] in
    let t0 = now () in
    for _ = 1 to n do
      made := w.setup () :: !made
    done;
    (now () -. t0, !made)
  in
  let close_all = List.iter (fun s -> s.close ()) in
  let rec calibrate n =
    let dt, made = batch n in
    close_all made;
    if dt >= 1e-4 || n >= 1 lsl 16 then n else calibrate (2 * n)
  in
  let n = if min_s > 0. then calibrate 1 else 1 in
  let rec go k spent times =
    let dt, made = batch n in
    let spent = spent +. dt and times = (dt /. float_of_int n) :: times in
    match made with
    | s :: rest when k >= min_batches && spent >= min_s ->
        close_all rest;
        (s, Remy_util.Stats.median (Array.of_list times))
    | _ ->
        close_all made;
        go (k + 1) spent times
  in
  go 1 0. []

(* Peak resident set of this process (not of worker children). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let layer_values (t : acc) (plain : acc) =
  let g = get t in
  let eval_s = g "evaluator.baseline_s" +. g "evaluator.candidate_s" in
  let backend_s = eval_s +. g "dist.baseline_s" +. g "dist.candidate_s" in
  let pool_s = g "par.pool_size" *. eval_s in
  let sim_wall = g "sim_wall" in
  let lookup_ns = ratio (g "lookup_ns_total") (g "lookup_calls") in
  let skips = g "evaluator.spec_skips" in
  (* train reads simulation latencies off the runtime histogram; the
     other workloads time each simulation themselves *)
  let sim_quantile k q = if Hashtbl.mem t.sums k then g k else quantile t "sim.run" q in
  let derived =
    [
      ("host_cores", float_of_int (Domain.recommended_domain_count ()));
      ("optimizer.evals_per_s", ratio (g "optimizer.evaluations") (g "wall"));
      ("optimizer.self_s", if backend_s > 0. then g "wall" -. backend_s else 0.);
      ("optimizer.round_p50_s", quantile t "round" 0.5);
      ("optimizer.round_p80_s", quantile t "round" 0.8);
      ("evaluator.skip_frac", ratio skips (g "evaluator.spec_sims" +. skips));
      ("par.helper_frac", ratio (g "helper_tasks") (g "par.pool_tasks"));
      ("par.busy_frac", ratio sim_wall pool_s);
      ("par.idle_s", if pool_s > 0. then pool_s -. sim_wall else 0.);
      ("sim.run_p50_s", sim_quantile "sim.run_p50_s" 0.5);
      ("sim.run_p90_s", sim_quantile "sim.run_p90_s" 0.9);
      ("sim.events_per_s", ratio (g "sim.events") sim_wall);
      ("sim.sim_s_per_s", ratio (g "sim_s") (g "wall"));
      ("sim.pkt_pool_hit_frac", ratio (g "pkt_hits") (g "pkt_hits" +. g "pkt_misses"));
      ("cc.acks_per_s", ratio (g "cc.acks") sim_wall);
      ("rule_tree.lookup_ns", lookup_ns);
      ("rule_tree.descent_ns", ratio (g "descent_ns_total") (g "lookup_calls"));
      ("rule_tree.lookups_per_ack", ratio (g "tallied_lookups") (g "tallied_acks"));
      ("rule_tree.lookup_share", ratio (g "rule_tree.lookups" *. lookup_ns *. 1e-9) sim_wall);
      ("gc.minor_words_per_event", ratio (g "gc_minor_words") (g "sim.events"));
      ("gc.peak_rss_mb", peak_rss_mb ());
      ("obs.trace_overhead_frac", ratio (g "wall") (get plain "wall") -. 1.);
    ]
  in
  List.map
    (fun (name, unit) ->
      (name, unit, match List.assoc_opt name derived with Some v -> v | None -> g name))
    per_layer

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
  record : Record.t;  (** the flat record: run identity + every metric *)
  errors : string list;
}

let write_spans w (t : acc) =
  let sink = Remy_obs.Sink.to_file (Filename.concat out_dir (w.name ^ ".spans.jsonl")) in
  List.iter (Remy_obs.Sink.emit sink) (List.rev t.spans);
  Remy_obs.Sink.close sink

(* A traced run does the same work on every run of a seed: a fixed number
   of units, and design runs stopped after this many rounds. *)
let trace_rounds = 8

let run w ~seed ~seconds ~trace ~size =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  (* 0.3 s of set-up outlasts the host's short slow spells, which a
     50 ms window caught in about one run in four. *)
  let s, setup_s =
    if size == smoke then timed_setup w ~min_batches:1 ~min_s:0.
    else timed_setup w ~min_batches:5 ~min_s:0.3
  in
  Fun.protect ~finally:s.close @@ fun () ->
  let fresh ?required_digests ?round_cap ~traced () =
    let acc = create_acc ?required_digests ?round_cap ~traced () in
    List.iter (fun (k, v) -> set acc k v) s.static;
    acc
  in
  (* The reference check: the default seed's first unit must reproduce
     its committed digest.  It also warms the process up (packet-pool
     first touch, first domain spawn, table caches) before anything is
     measured. *)
  let reference = fresh ~required_digests:true ~traced:false () in
  run_pass s reference w.reference ~seed:w.default_seed ~units:1 ~deadline:infinity;
  let measured, plain, metrics =
    if not trace then begin
      let acc = fresh ~traced:false () in
      run_pass s acc size ~seed ~units:max_int ~deadline:(now () +. seconds);
      let values = [ quantile acc "unit_rate" 0.5; setup_s ] in
      (acc, acc, List.map2 (fun (n, u) v -> (n, u, v)) end_to_end values)
    end
    else begin
      let units = if size == smoke then 1 else w.trace_units in
      let plain = fresh ~round_cap:trace_rounds ~traced:false () in
      run_pass s plain size ~seed ~units ~deadline:infinity;
      let t = fresh ~round_cap:trace_rounds ~traced:true () in
      Profiler.reset ();
      Obs_metrics.reset ();
      Profiler.enable ();
      Obs_metrics.enable ();
      let g0 = Gc.quick_stat () in
      Fun.protect
        (fun () -> run_pass s t size ~seed ~units ~deadline:infinity)
        ~finally:(fun () ->
          Profiler.disable ();
          Obs_metrics.disable ());
      let g1 = Gc.quick_stat () in
      set t "gc_minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
      addi t "gc.major_collections" (g1.Gc.major_collections - g0.Gc.major_collections);
      set t "gc.top_heap_mb"
        (float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
      s.end_pass t;
      check t (t.digests = plain.digests) "traced outputs differ from untraced outputs";
      time_lookups t;
      write_spans w t;
      (t, plain, layer_values t plain)
    end
  in
  let metrics =
    List.map
      (fun (n, u, v) ->
        check measured (Float.is_finite v) "metric %s is not finite" n;
        (n, u, if Float.is_finite v then v else 0.))
      metrics
  in
  let errors = List.sort_uniq compare (reference.errors @ plain.errors @ measured.errors) in
  let correct = errors = [] in
  let attempted = max 1 (int_of_float (get measured "attempted")) in
  let failed = if correct then int_of_float (get measured "failed") else attempted in
  (* Every record names the host shape it ran on, so a 1-core host
     (where Par clamps the pool to one domain) cannot pass for the
     2-domain baseline. *)
  let identity =
    [
      ("workload", Record.Str w.name);
      ("seed", Record.Int seed);
      ("size", Record.Str size.label);
      ("trace", Record.Bool trace);
      ("correct", Record.Bool correct);
      ("attempted", Record.Int attempted);
      ("failed", Record.Int failed);
      ("units", Record.Int (List.length measured.digests));
      ("digest", Record.Str (match List.rev measured.digests with d :: _ -> d | [] -> ""));
      ("host_cores", Record.Float (float_of_int (Domain.recommended_domain_count ())));
      ("par.pool_size", Record.Float (get measured "par.pool_size"));
      ("dist.workers", Record.Float (get measured "dist.workers"));
    ]
  in
  let record =
    identity
    @ List.filter_map
        (fun (n, _, v) -> if List.mem_assoc n identity then None else Some (n, Record.Float v))
        metrics
  in
  { correct; attempted; failed; metrics; record; errors }

(* The last line of a run: the result object the benchmark contract
   reads, assembled from Record-rendered pieces. *)
let result_line r =
  let head =
    Record.to_json
      [
        ("correct", Record.Bool r.correct);
        ("attempted", Record.Int r.attempted);
        ("failed", Record.Int r.failed);
      ]
  in
  let metric (name, unit, v) =
    Printf.sprintf "\"%s\":%s" name
      (Record.to_json [ ("value", Record.Float v); ("unit", Record.Str unit) ])
  in
  String.sub head 0 (String.length head - 1)
  ^ ",\"metrics\":{"
  ^ String.concat "," (List.map metric r.metrics)
  ^ "}}"

(* --- self-test ------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* Metric names a BENCHMARK.json section declares: every ["name": "..."]
   between the section's key and the end of its array. *)
let declared_names json section =
  let find_from i pat =
    let n = String.length json and m = String.length pat in
    let rec go i =
      if i + m > n then None else if String.sub json i m = pat then Some i else go (i + 1)
    in
    go i
  in
  match find_from 0 (Printf.sprintf "\"%s\"" section) with
  | None -> []
  | Some start ->
      let stop = String.index_from json start ']' in
      let rec names i acc =
        match find_from i "\"name\"" with
        | Some j when j < stop ->
            let q1 = String.index_from json (j + 6) '"' in
            let q2 = String.index_from json (q1 + 1) '"' in
            names q2 (String.sub json (q1 + 1) (q2 - q1 - 1) :: acc)
        | _ -> List.rev acc
      in
      names start []

(* Every workload at smoke size, untraced and traced: each run must check
   out correct and carry every metric BENCHMARK.json declares for it. *)
let self_test path =
  let json = read_file path in
  let ok = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun (trace, section) ->
          let declared = declared_names json section in
          let r = run w ~seed:w.default_seed ~seconds:0. ~trace ~size:smoke in
          let missing = List.filter (fun n -> not (List.mem_assoc n r.record)) declared in
          let good = r.correct && declared <> [] && missing = [] in
          if not good then ok := false;
          Printf.printf "%s %s trace=%b: %s\n%!" (if good then "ok  " else "FAIL") w.name trace
            (if good then Printf.sprintf "%d metrics" (List.length declared)
             else String.concat "; " (r.errors @ List.map (fun n -> "missing " ^ n) missing)))
        [ (false, "end_to_end"); (true, "per_layer") ])
    workloads;
  exit (if !ok then 0 else 1)

(* --- command line ----------------------------------------------------------- *)

let () =
  match Array.to_list Sys.argv with
  | _ :: flag :: out :: rest when flag = worker_flag ->
      worker_main ~out ~traced:(rest = [ "traced" ])
  | _ :: "--self-test" :: path :: _ -> self_test path
  | _ ->
      let workload = ref "" and seed = ref None and seconds = ref 20. and trace = ref 0 in
      Arg.parse
        [
          ( "--workload",
            Arg.Set_string workload,
            "NAME train | train_dist | eval_fig4 | scale_incast" );
          ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed (default: the workload's)");
          ("--seconds", Arg.Set_float seconds, "S measure for S seconds (default 20)");
          ("--trace", Arg.Set_int trace, "0|1 1: report per-layer metrics from a traced pass");
        ]
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        "remy_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | None ->
          prerr_endline ("remy_bench: unknown workload " ^ !workload);
          exit 2
      | Some w ->
          let seed = Option.value ~default:w.default_seed !seed in
          let r = run w ~seed ~seconds:!seconds ~trace:(!trace <> 0) ~size:full in
          List.iter (fun e -> prerr_endline ("remy_bench: check failed: " ^ e)) r.errors;
          print_endline (Record.to_json r.record);
          print_endline (result_line r);
          exit (if r.correct then 0 else 1)
