(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index) plus Bechamel
   microbenchmarks of the core primitives.

     dune exec bench/main.exe                 # all experiments, scaled down
     dune exec bench/main.exe -- --only fig4  # one experiment
     dune exec bench/main.exe -- --full       # paper-scale (hours)
     dune exec bench/main.exe -- --micro      # microbenchmarks only *)

open Cmdliner
module Figures = Remy_scenarios.Figures

(* --- Bechamel microbenchmarks ---------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let open Remy_util in
  let prng = Prng.create 1 in
  let prng_test =
    Test.make ~name:"prng/bits64" (Staged.stage (fun () -> ignore (Prng.bits64 prng)))
  in
  let tracker = Remy.Memory.tracker () in
  let memory_test =
    Test.make ~name:"memory/on_ack"
      (Staged.stage (fun () ->
           ignore
             (Remy.Memory.on_ack tracker ~sent_at:1.0 ~received_at:1.1 ~rtt:0.1)))
  in
  (* A realistically subdivided rule table for lookup costs. *)
  let tree = Remy.Rule_tree.create () in
  let seed_rng = Prng.create 5 in
  for _ = 1 to 3 do
    let ids = Remy.Rule_tree.live_ids tree in
    let id = List.nth ids (Prng.int seed_rng (List.length ids)) in
    ignore
      (Remy.Rule_tree.subdivide tree id
         ~at:
           (Remy.Memory.make
              ~ack_ewma:(Prng.float seed_rng 100.)
              ~send_ewma:(Prng.float seed_rng 100.)
              ~rtt_ratio:(Prng.float seed_rng 4.)))
  done;
  let probe = Remy.Memory.make ~ack_ewma:12.5 ~send_ewma:11.0 ~rtt_ratio:1.3 in
  let lookup_test =
    Test.make ~name:"rule_tree/lookup"
      (Staged.stage (fun () -> ignore (Remy.Rule_tree.lookup tree probe)))
  in
  let engine_test =
    Test.make ~name:"engine/schedule+run-64"
      (Staged.stage (fun () ->
           let e = Remy_sim.Engine.create () in
           for i = 0 to 63 do
             Remy_sim.Engine.schedule e (float_of_int i *. 0.001) (fun () -> ())
           done;
           Remy_sim.Engine.run e ~until:1.))
  in
  let packets = Remy_sim.Packet.create () in
  let codel_q = Remy_sim.Codel.create ~table:packets ~capacity:1000 () in
  let codel_test =
    Test.make ~name:"codel/enq+deq"
      (Staged.stage (fun () ->
           let h =
             Remy_sim.Packet.acquire packets ~flow:0 ~seq:0 ~conn:0 ~flags:0 ~now:0.
           in
           ignore (codel_q.Remy_sim.Qdisc.enqueue ~now:0. h);
           let h = codel_q.Remy_sim.Qdisc.dequeue ~now:0.001 in
           if h <> Remy_sim.Packet.none then Remy_sim.Packet.release packets h))
  in
  Test.make_grouped ~name:"remy"
    [
      prng_test; memory_test; lookup_test; engine_test; codel_test;
    ]

let micro_rows () =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> est
          | Some [] | None -> nan
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
        in
        (name, ns, r2) :: acc)
      results []
  in
  List.sort compare rows

let run_micro fmt =
  Format.fprintf fmt "@.==== Microbenchmarks (Bechamel, OLS time per run) ====@.@.";
  let rows = micro_rows () in
  Format.fprintf fmt "%-32s %14s %8s@." "benchmark" "time/run (ns)" "r^2";
  List.iter
    (fun (name, ns, r2) -> Format.fprintf fmt "%-32s %14.1f %8.3f@." name ns r2)
    rows

(* --- optimizer-throughput macrobench ---------------------------------- *)

(* A fixed small training config (onex model, k = 1 so the rule table
   subdivides every epoch and the incremental cache has rules to skip).
   Reported as candidate evaluations per second of wall time; the
   evaluation count is deterministic, so the ratio between two builds is
   a pure wall-time speedup. *)
type macro_result = {
  mr_domains : int;
  mr_smoke : bool;
  mr_evaluations : int;
  mr_wall_s : float;
  mr_evals_per_sec : float;
  mr_spec_sims : int;
  mr_spec_skips : int;
  mr_pool_jobs : int;
  mr_pool_tasks : int;
  mr_pool_helper_tasks : int;
  mr_rules : int;
  mr_final_score : float;
  mr_counters : Remy_obs.Counters.snapshot;
      (* counter deltas attributed to this section alone *)
}

let run_macro ~domains ~smoke =
  let open Remy in
  let config =
    Optimizer.default_config
      ~specimens_per_step:(if smoke then 3 else 4)
      ~domains ~k_subdivide:1 ~candidate_multipliers:[ 1.; 8. ]
      ~rounds_per_rule:(if smoke then 1 else 2)
      ~max_epochs:(if smoke then 2 else 3)
      ~wall_budget_s:600. ~seed:42
      ~model:(Net_model.onex ~sim_duration:1.0 ())
      ~objective:(Objective.proportional ~delta:1.0) ()
  in
  let before = Par.stats () in
  let c0 = Remy_obs.Counters.snapshot () in
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let report = Optimizer.design config in
  let wall = Unix.gettimeofday () -. t0 in
  let after = Par.stats () in
  {
    mr_domains = domains;
    mr_smoke = smoke;
    mr_evaluations = report.Optimizer.evaluations;
    mr_wall_s = wall;
    mr_evals_per_sec = float_of_int report.Optimizer.evaluations /. wall;
    mr_spec_sims = report.Optimizer.spec_sims;
    mr_spec_skips = report.Optimizer.spec_skips;
    mr_pool_jobs = after.Par.pool_jobs - before.Par.pool_jobs;
    mr_pool_tasks = after.Par.pool_tasks - before.Par.pool_tasks;
    mr_pool_helper_tasks = after.Par.pool_helper_tasks - before.Par.pool_helper_tasks;
    mr_rules = Rule_tree.num_rules report.Optimizer.tree;
    mr_final_score = report.Optimizer.final_score;
    mr_counters = Remy_obs.Counters.diff (Remy_obs.Counters.snapshot ()) c0;
  }

let pp_macro fmt (m : macro_result) =
  Format.fprintf fmt
    "@.==== Optimizer macrobench (domains=%d%s) ====@.@.%d evaluations in %.2f s \
     = %.1f evals/s; %d specimen sims, %d skipped; %d pool jobs, %d tasks (%d by \
     helpers); %d rules, final score %.4f@."
    m.mr_domains
    (if m.mr_smoke then ", smoke" else "")
    m.mr_evaluations m.mr_wall_s m.mr_evals_per_sec m.mr_spec_sims m.mr_spec_skips
    m.mr_pool_jobs m.mr_pool_tasks m.mr_pool_helper_tasks m.mr_rules
    m.mr_final_score

(* --- simulator-only microbench ---------------------------------------- *)

(* Hot-path throughput with the optimizer out of the picture: a dumbbell
   simulation driven by a realistically subdivided RemyCC table, measured
   via the Remy_obs.Counters deltas, plus a tight rule-lookup loop. *)
type sim_result = {
  sb_sim_s : float;  (* simulated seconds across all repetitions *)
  sb_wall_s : float;
  sb_events : int;
  sb_events_per_sec : float;
  sb_acks : int;
  sb_acks_per_sec : float;
  sb_lookups_per_sec : float;
  sb_minor_words_per_sim_s : float;
  sb_pool_hit_rate : float;
      (* packet acquires that did not grow the packet table *)
  sb_counters : Remy_obs.Counters.snapshot;
      (* counter deltas attributed to this section alone *)
}

(* Four random subdivisions = 29 rules, the table size a mid-training
   optimizer epoch works with. *)
let bench_tree () =
  let open Remy in
  let tree = Rule_tree.create () in
  let rng = Remy_util.Prng.create 5 in
  for _ = 1 to 4 do
    let ids = Rule_tree.live_ids tree in
    let id = List.nth ids (Remy_util.Prng.int rng (List.length ids)) in
    ignore
      (Rule_tree.subdivide tree id
         ~at:
           (Memory.make
              ~ack_ewma:(Remy_util.Prng.float rng 200.)
              ~send_ewma:(Remy_util.Prng.float rng 200.)
              ~rtt_ratio:(Remy_util.Prng.float rng 4.)))
  done;
  tree

let run_sim_bench ~smoke =
  let open Remy in
  let open Remy_cc in
  let tree = bench_tree () in
  let duration = if smoke then 8. else 24. in
  let reps = 3 in
  let config seed =
    Topology.dumbbell ~service:(Topology.Rate_mbps 15.) ~qdisc:(Topology.Droptail 120)
      ~rtts:[| 0.1; 0.1 |] ~cc:(Remycc.factory tree)
      ~workload:(Remy_sim.Workload.by_time ~mean_on:1.0 ~mean_off:0.5)
      ~start:`Off_draw ~duration ~seed ()
  in
  (* Snapshot-diff instead of a process-wide reset, so concurrent report
     sections (the macrobench just ran) keep their own attribution. *)
  let c0 = Remy_obs.Counters.snapshot () in
  Gc.full_major ();
  let mw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for r = 1 to reps do
    ignore (Topology.run (config (1000 + r)))
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. mw0 in
  let snap = Remy_obs.Counters.diff (Remy_obs.Counters.snapshot ()) c0 in
  (* Lookup throughput over a cycling batch of pseudorandom memory
     points; the batch is a power of two so indexing is a mask. *)
  let probes =
    let rng = Remy_util.Prng.create 9 in
    Array.init 1024 (fun _ ->
        Memory.make
          ~ack_ewma:(Remy_util.Prng.float rng 400.)
          ~send_ewma:(Remy_util.Prng.float rng 400.)
          ~rtt_ratio:(Remy_util.Prng.float rng 8.))
  in
  let n_lookups = if smoke then 2_000_000 else 8_000_000 in
  let time_lookups f =
    let t0 = Unix.gettimeofday () in
    let acc = ref 0 in
    for i = 0 to n_lookups - 1 do
      acc := !acc + f tree (Array.unsafe_get probes (i land 1023))
    done;
    ignore (Sys.opaque_identity !acc);
    float_of_int n_lookups /. (Unix.gettimeofday () -. t0)
  in
  let lookups_per_sec = time_lookups Rule_tree.lookup in
  Remy_obs.Counters.add Remy_obs.Counters.lookups n_lookups;
  let counters = Remy_obs.Counters.diff (Remy_obs.Counters.snapshot ()) c0 in
  let sim_s = duration *. float_of_int reps in
  let pool_total = snap.Remy_obs.Counters.pool_hits + snap.Remy_obs.Counters.pool_misses in
  {
    sb_sim_s = sim_s;
    sb_wall_s = wall;
    sb_events = snap.Remy_obs.Counters.events_run;
    sb_events_per_sec = float_of_int snap.Remy_obs.Counters.events_run /. wall;
    sb_acks = snap.Remy_obs.Counters.acks_processed;
    sb_acks_per_sec = float_of_int snap.Remy_obs.Counters.acks_processed /. wall;
    sb_lookups_per_sec = lookups_per_sec;
    sb_minor_words_per_sim_s = minor_words /. sim_s;
    sb_pool_hit_rate =
      (if pool_total > 0 then
         float_of_int snap.Remy_obs.Counters.pool_hits /. float_of_int pool_total
       else 0.);
    sb_counters = counters;
  }

let pp_sim fmt (s : sim_result) =
  Format.fprintf fmt
    "@.==== Simulator microbench (%g simulated s) ====@.@.%d events in %.2f s = \
     %.0f events/s; %d acks = %.0f acks/s; %.2g lookups/s; %.3g minor words \
     per simulated second; pool hit rate %.3f@."
    s.sb_sim_s s.sb_events s.sb_wall_s s.sb_events_per_sec s.sb_acks
    s.sb_acks_per_sec s.sb_lookups_per_sec
    s.sb_minor_words_per_sim_s s.sb_pool_hit_rate

(* --- agenda hold microbench ------------------------------------------- *)

(* The classic "hold" benchmark for event queues: preload N pending
   events, then repeatedly pop the minimum and push a replacement a
   random delta later, which is the steady-state access pattern of the
   simulator agenda.  It drives [Engine] itself with one registered
   handle, so every hold is a pop whose callback's push replaces the
   root entry, as a link or delay line does in a simulation.  The
   clock stops at the [ops]-th event; the remaining [pending] entries
   then drain untimed. *)
type hold_result = { hd_pending : int; hd_ops : int; hd_ops_per_sec : float }

let hold_agenda ~pending ~ops =
  let open Remy_util in
  let rng = Prng.create 7 in
  let e = Remy_sim.Engine.create () in
  let fired = ref 0 and t_end = ref 0. in
  let self = ref Remy_sim.Engine.no_handle in
  let h =
    Remy_sim.Engine.register e (fun () ->
        incr fired;
        if !fired < ops then
          Remy_sim.Engine.schedule_handle_in e (Prng.float rng 0.01) !self
        else if !fired = ops then t_end := Unix.gettimeofday ())
  in
  self := h;
  for _ = 1 to pending do
    Remy_sim.Engine.schedule_handle e (Prng.float rng 1.0) h
  done;
  let t0 = Unix.gettimeofday () in
  Remy_sim.Engine.run e ~until:Float.infinity;
  float_of_int ops /. (!t_end -. t0)

let run_hold ~smoke =
  List.map
    (fun pending ->
      let ops =
        let base = if pending >= 65536 then 1_000_000 else 2_000_000 in
        if smoke then base / 4 else base
      in
      { hd_pending = pending; hd_ops = ops; hd_ops_per_sec = hold_agenda ~pending ~ops })
    [ 64; 4096; 65536 ]

let pp_hold fmt (rows : hold_result list) =
  Format.fprintf fmt
    "@.==== Agenda hold benchmark (pop-min + push replacement) ====@.@.%-10s %14s@."
    "pending" "agenda ops/s";
  List.iter
    (fun r -> Format.fprintf fmt "%-10d %14.0f@." r.hd_pending r.hd_ops_per_sec)
    rows

(* --- flow-scale simulator benchmark ----------------------------------- *)

(* End-to-end simulator throughput as the flow count grows, on the
   multi-bottleneck topologies, with RemyCC senders on the SoA sender
   core.
   The pool hit rate is the share of packet acquires served without
   growing the run's packet table; a miss is an acquire that doubles
   it. *)
type scale_arm = {
  sa_wall_s : float;
  sa_events : int;
  sa_events_per_sec : float;
  sa_acks : int;
  sa_acks_per_sec : float;
  sa_pool_hit_rate : float;
}

type scale_row = {
  sc_scenario : string;
  sc_flows : int;
  sc_sim_s : float;
  sc_arm : scale_arm;
}

let arm_of_rep wall (snap : Remy_obs.Counters.snapshot) =
  let pool_total =
    snap.Remy_obs.Counters.pool_hits + snap.Remy_obs.Counters.pool_misses
  in
  {
    sa_wall_s = wall;
    sa_events = snap.Remy_obs.Counters.events_run;
    sa_events_per_sec = float_of_int snap.Remy_obs.Counters.events_run /. wall;
    sa_acks = snap.Remy_obs.Counters.acks_processed;
    sa_acks_per_sec = float_of_int snap.Remy_obs.Counters.acks_processed /. wall;
    sa_pool_hit_rate =
      (if pool_total > 0 then
         float_of_int snap.Remy_obs.Counters.pool_hits
         /. float_of_int pool_total
       else 0.);
  }

(* Measure several arms with their reps interleaved — rep 1 of every
   arm, then rep 2, and so on — keeping each arm's best-wall rep.  A
   single-vCPU CI box loses tens of percent to host-side contention
   that drifts on a seconds scale, so running one arm's reps
   back-to-back before the next arm's biases any ratio between them;
   interleaving spreads a slow window across all arms, and the
   per-arm minimum converges on the code's real speed. *)
let measure_arms ~reps (arms : (unit -> unit) list) =
  let n = List.length arms in
  let best = Array.make n infinity and snaps = Array.make n None in
  for _ = 1 to reps do
    List.iteri
      (fun i body ->
        let c0 = Remy_obs.Counters.snapshot () in
        let t0 = Unix.gettimeofday () in
        body ();
        let wall = Unix.gettimeofday () -. t0 in
        let snap = Remy_obs.Counters.diff (Remy_obs.Counters.snapshot ()) c0 in
        if wall < best.(i) then begin
          best.(i) <- wall;
          snaps.(i) <- Some snap
        end)
      arms
  done;
  Array.to_list (Array.init n (fun i -> arm_of_rep best.(i) (Option.get snaps.(i))))

let scale_body (config : unit -> Remy_cc.Topology.config) () =
  ignore (Remy_cc.Topology.run (config ()))

let run_sim_scale ~smoke =
  let open Remy_cc in
  let tree = bench_tree () in
  let scale = if smoke then 0.5 else 1.0 in
  let reps = if smoke then 2 else 5 in
  (* Incast cells model synchronized single-segment responders over a
     metro-scale fan-in: 1.5 kB bursts every 20 ms across a 4 ms RTT.
     The long RTT is deliberate — it keeps tens of thousands of packets
     and ACKs in flight at 4096 flows, which is the regime the SoA
     senders and the shared delay lines exist for.  Durations shrink as
     flow counts grow so every cell costs seconds, not minutes;
     events/s is a rate, so cells remain comparable. *)
  let rtt_s = 8e-3 and burst_kb = 1.5 and period_s = 0.02 in
  let cells = [ (16, 4.0, 8.0); (256, 2.0, 4.0); (4096, 2.0, 2.0) ] in
  List.concat_map
    (fun (n, incast_dur, parking_dur) ->
      let incast_cfg () =
        Topology.incast ~rtt_s ~burst_kb ~period_s ~n
          ~cc:(Remy.Remycc.factory tree)
          ~duration:(incast_dur *. scale) ~seed:71 ()
      in
      let parking_cfg () =
        Topology.parking_lot ~n
          ~cc:(Remy.Remycc.factory tree)
          ~workload:(Remy_sim.Workload.by_time ~mean_on:1.0 ~mean_off:0.2)
          ~start:`Off_draw
          ~duration:(parking_dur *. scale) ~seed:72 ()
      in
      let incast, parking =
        match
          measure_arms ~reps [ scale_body incast_cfg; scale_body parking_cfg ]
        with
        | [ i; p ] -> (i, p)
        | _ -> assert false
      in
      [
        {
          sc_scenario = "incast";
          sc_flows = n;
          sc_sim_s = (incast_cfg ()).Topology.duration;
          sc_arm = incast;
        };
        {
          sc_scenario = "parkinglot";
          sc_flows = n;
          sc_sim_s = (parking_cfg ()).Topology.duration;
          sc_arm = parking;
        };
      ])
    cells

let pp_scale fmt (rows : scale_row list) =
  Format.fprintf fmt
    "@.==== Flow-scale benchmark (SoA fleet) ====@.@.%-12s %6s %6s \
     %13s %9s@."
    "scenario" "flows" "sim s" "events/s" "pool hit";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-12s %6d %6.2g %13.0f %9.3f@." r.sc_scenario r.sc_flows
        r.sc_sim_s r.sc_arm.sa_events_per_sec r.sc_arm.sa_pool_hit_rate)
    rows

(* --- machine-readable output ------------------------------------------ *)

(* One flat row per section, its "row" field naming the section as a
   figure's rows are tagged; the micro section has one row per
   benchmark.  The gate looks each gated key up across all rows and
   requires it in exactly one, so gated keys carry what tells them
   apart (hold keys the pending count, scale keys the scenario and flow
   count); ungated keys such as wall_s and the counters repeat across
   sections. *)
let bench_rows micro (macro : macro_result) (sim : sim_result)
    (hold : hold_result list) (scale : scale_row list) =
  let open Remy_obs.Record in
  let row tag fields = ("row", Str tag) :: fields in
  let counters c = Remy_obs.Counters.to_record ~prefix:"" c in
  [
    row "host"
      [
        ("schema", Str "remy-bench-v1");
        ("cores", Int (Domain.recommended_domain_count ()));
      ];
  ]
  @ List.map
      (fun (name, ns, r2) ->
        row "micro"
          [ ("name", Str name); ("ns_per_run", Float ns); ("r_square", Float r2) ])
      micro
  @ [
      row "sim_microbench"
        ([
           ("sim_s", Float sim.sb_sim_s);
           ("wall_s", Float sim.sb_wall_s);
           ("events", Int sim.sb_events);
           ("events_per_sec", Float sim.sb_events_per_sec);
           ("acks", Int sim.sb_acks);
           ("acks_per_sec", Float sim.sb_acks_per_sec);
           ("lookups_per_sec", Float sim.sb_lookups_per_sec);
           ("minor_words_per_sim_s", Float sim.sb_minor_words_per_sim_s);
           ("pool_hit_rate", Float sim.sb_pool_hit_rate);
         ]
        @ counters sim.sb_counters);
      row "agenda_hold"
        (List.concat_map
           (fun r ->
             [
               (Printf.sprintf "hold%d_ops" r.hd_pending, Int r.hd_ops);
               ( Printf.sprintf "agenda_hold%d_ops_per_sec" r.hd_pending,
                 Float r.hd_ops_per_sec );
             ])
           hold);
      row "sim_scale"
        (List.concat_map
           (fun r ->
             let key k = Printf.sprintf "%s%d_%s" r.sc_scenario r.sc_flows k in
             [
               (key "sim_s", Float r.sc_sim_s);
               (key "events", Int r.sc_arm.sa_events);
               (key "events_per_sec", Float r.sc_arm.sa_events_per_sec);
               (key "acks_per_sec", Float r.sc_arm.sa_acks_per_sec);
               (key "pool_hit_rate", Float r.sc_arm.sa_pool_hit_rate);
             ])
           scale);
      row "optimizer_macrobench"
        ([
           ("domains", Int macro.mr_domains);
           ("smoke", Bool macro.mr_smoke);
           ("evaluations", Int macro.mr_evaluations);
           ("wall_s", Float macro.mr_wall_s);
           ("evals_per_sec", Float macro.mr_evals_per_sec);
           ("spec_sims", Int macro.mr_spec_sims);
           ("spec_skips", Int macro.mr_spec_skips);
           ("pool_jobs", Int macro.mr_pool_jobs);
           ("pool_tasks", Int macro.mr_pool_tasks);
           ("pool_helper_tasks", Int macro.mr_pool_helper_tasks);
           ("rules", Int macro.mr_rules);
           ("final_score", Float macro.mr_final_score);
         ]
        @ counters macro.mr_counters);
    ]

(* --- benchmark-regression gate ---------------------------------------- *)

let read_rows path =
  match Remy_obs.Sink.read_file path with
  | Ok rows -> rows
  | Error e ->
    Printf.eprintf "bench: %s\n" e;
    exit 2

(* A key's value is its one occurrence across the file's rows. *)
let lookup rows key =
  match List.filter_map (Remy_obs.Record.find key) rows with
  | [] -> `Missing
  | [ v ] -> (
    (* A value with no finite reading (a string, or the "nan" or "inf" of
       a section that timed nothing) has no ratio to gate: it counts as
       missing, a FAIL in the candidate and skipped in the baseline. *)
    match Remy_obs.Record.to_float v with
    | Some x when Float.is_finite x -> `Value x
    | _ -> `Missing)
  | vs -> `Repeated (List.length vs)

(* Higher-is-better throughput metrics the CI gate guards.  Allocation
   and score metrics are recorded but not gated: minor_words is already
   held down by design, and final_score is checked bit-exactly by the
   test suite, not by a tolerance band. *)
let gated_metrics =
  [
    "evals_per_sec";
    "events_per_sec";
    "acks_per_sec";
    "lookups_per_sec";
    (* Agenda hold throughput at a simulator-scale pending count. *)
    "agenda_hold4096_ops_per_sec";
    (* Flow-scale end-to-end throughput at the 4096-flow target. *)
    "incast4096_events_per_sec";
    "incast4096_acks_per_sec";
    "parkinglot4096_events_per_sec";
  ]

let run_gate ?(metrics = gated_metrics) ~tolerance ~candidate ~baseline () =
  let cand = read_rows candidate and base = read_rows baseline in
  Printf.printf "comparing %s against baseline %s (tolerance %.0f%%)\n" candidate
    baseline (100. *. tolerance);
  (match (lookup cand "cores", lookup base "cores") with
  | `Value c, `Value b when c <> b ->
    Printf.printf
      "warning: host core counts differ (candidate %g, baseline %g); throughput \
       ratios may reflect the machine, not the code\n"
      c b
  | _ -> ());
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf fmt
  in
  List.iter
    (fun key ->
      match (lookup cand key, lookup base key) with
      (* A key in several rows has no one value to compare. *)
      | `Repeated n, _ -> fail "%-22s in %d candidate rows  FAIL\n" key n
      | _, `Repeated n -> fail "%-22s in %d baseline rows  FAIL\n" key n
      | `Value c, `Value b when b > 0. ->
        let ratio = c /. b in
        let verdict = if ratio < 1. -. tolerance then (incr failures; "FAIL") else "ok" in
        Printf.printf "%-22s baseline %14.1f  candidate %14.1f  %5.2fx  %s\n" key
          b c ratio verdict
      | `Missing, _ ->
        (* A gated key the candidate no longer reports (renamed or
           deleted) would otherwise go unguarded. *)
        fail "%-22s missing in candidate  FAIL\n" key
      | _, `Missing -> Printf.printf "%-22s missing in baseline; skipped\n" key
      | `Value _, `Value _ -> Printf.printf "%-22s baseline non-positive; skipped\n" key)
    metrics;
  if !failures > 0 then
    Printf.printf
      "regression gate: FAIL (%d metric(s) missing or regressed by more than %.0f%%)\n"
      !failures (100. *. tolerance)
  else
    Printf.printf "regression gate: ok (all gated metrics within %.0f%% of baseline)\n"
      (100. *. tolerance);
  !failures = 0

(* --- experiment driver ------------------------------------------------ *)

let run full only micro_only replications duration seed out json smoke
    bench_domains compare_base gate_candidate tolerance gate_metrics obs =
  let fmt = Format.std_formatter in
  let metrics =
    match gate_metrics with [] -> gated_metrics | keys -> keys
  in
  if obs then begin
    Remy_obs.Metrics.enable ();
    Remy_obs.Profiler.enable ()
  end;
  match (gate_candidate, json) with
  | Some candidate, _ -> (
    (* Pure file-vs-file comparison: no benchmarks run.  Used by CI to
       gate a fresh results file against the committed baseline (and to
       self-test that the gate trips on a seeded slowdown). *)
    match compare_base with
    | None ->
      prerr_endline "bench: --gate requires --compare BASELINE.jsonl";
      exit 2
    | Some baseline ->
      if not (run_gate ~metrics ~tolerance ~candidate ~baseline ()) then exit 1)
  | None, Some path ->
    (* Machine-readable mode: the optimizer-throughput macrobench, then
       the simulator-only microbench, then bechamel microbenchmarks,
       written as one file of rows for perf trajectories.  The
       macrobench goes first so bechamel's heap churn cannot distort the
       timed training run. *)
    let t0 = Remy_obs.Clock.now_s () in
    let manifest_path = path ^ ".manifest.json" in
    let manifest0 = Remy_obs.Manifest.make ~tool:"bench" ~seed () in
    let write_manifest m =
      try Remy_obs.Manifest.write ~path:manifest_path m
      with Sys_error msg ->
        Printf.eprintf "warning: cannot write manifest: %s\n%!" msg
    in
    write_manifest manifest0;
    Format.fprintf fmt "running optimizer macrobench (domains=%d%s)...@."
      bench_domains
      (if smoke then ", smoke" else "");
    let macro = Remy_obs.Profiler.span "macro" (fun () ->
        run_macro ~domains:bench_domains ~smoke)
    in
    pp_macro fmt macro;
    Format.fprintf fmt "running simulator microbench...@.";
    let sim = Remy_obs.Profiler.span "sim_micro" (fun () -> run_sim_bench ~smoke) in
    pp_sim fmt sim;
    Format.fprintf fmt "running agenda hold benchmark...@.";
    let hold = Remy_obs.Profiler.span "agenda_hold" (fun () -> run_hold ~smoke) in
    pp_hold fmt hold;
    Format.fprintf fmt "running flow-scale benchmark...@.";
    let scale =
      Remy_obs.Profiler.span "sim_scale" (fun () -> run_sim_scale ~smoke)
    in
    pp_scale fmt scale;
    Format.fprintf fmt "running microbenchmarks...@.";
    let rows = Remy_obs.Profiler.span "bechamel" micro_rows in
    Remy_obs.Sink.write_file path (bench_rows rows macro sim hold scale);
    Format.fprintf fmt "wrote %s@." path;
    write_manifest
      (Remy_obs.Manifest.finalize manifest0 ~status:"completed"
         ~wall_s:(Remy_obs.Clock.now_s () -. t0));
    if obs then begin
      try
        Remy_obs.Profiler.write_files (path ^ ".profile") (Remy_obs.Profiler.snapshot ());
        Format.fprintf fmt "wrote %s.profile, %s.profile.jsonl@." path path
      with Sys_error msg -> Printf.eprintf "warning: cannot write profile: %s\n%!" msg
    end;
    (match compare_base with
    | Some baseline ->
      if not (run_gate ~metrics ~tolerance ~candidate:path ~baseline ()) then
        exit 1
    | None -> ())
  | None, None ->
  let base = if full then Figures.full else Figures.quick in
  let opts =
    {
      Figures.replications =
        (match replications with Some r -> r | None -> base.Figures.replications);
      duration = (match duration with Some d -> d | None -> base.Figures.duration);
      base_seed = seed;
      progress = (fun msg -> Format.eprintf "[bench] %s@." msg);
    }
  in
  (* Make --out's directory first: a bad path fails before any run. *)
  (try Option.iter (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755) out
   with Sys_error msg -> Format.eprintf "error: --out: %s@." msg; exit 1);
  let write_rows id rows =
    Option.iter
      (fun dir -> Remy_obs.Sink.write_file (Filename.concat dir (id ^ ".jsonl")) rows)
      out
  in
  Format.fprintf fmt
    "TCP ex Machina reproduction benchmarks (replications=%d, duration=%.0fs, \
     seed=%d)@."
    opts.Figures.replications opts.Figures.duration opts.Figures.base_seed;
  if not micro_only then begin
    let selected =
      match only with
      | [] -> Figures.all
      | ids ->
        List.filter_map
          (fun id ->
            match List.assoc_opt id Figures.all with
            | Some f -> Some (id, f)
            | None ->
              Format.eprintf "unknown experiment %S (known: %s)@." id
                (String.concat ", " (List.map fst Figures.all));
              exit 1)
          ids
    in
    List.iter
      (fun (id, (fig : Figures.figure)) ->
        let t0 = Unix.gettimeofday () in
        let rows = fig.run opts in
        fig.print fmt rows;
        write_rows id rows;
        Format.fprintf fmt "@.[%s finished in %.1f s]@." id
          (Unix.gettimeofday () -. t0))
      selected
  end;
  if micro_only || only = [] then run_micro fmt

let cmd =
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale runs (hours).") in
  let only =
    Arg.(
      value
      & opt (list string) []
      & info [ "only" ] ~doc:"Comma-separated experiment ids (e.g. fig4,fig10).")
  in
  let micro = Arg.(value & flag & info [ "micro" ] ~doc:"Microbenchmarks only.") in
  let replications =
    Arg.(value & opt (some int) None & info [ "replications" ] ~doc:"Override.")
  in
  let duration =
    Arg.(value & opt (some float) None & info [ "duration" ] ~doc:"Override, s.")
  in
  let seed = Arg.(value & opt int 7000 & info [ "seed" ] ~doc:"Base seed.") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Also write each experiment's rows to $(docv)/<id>.jsonl.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ]
          ~doc:
            "Write machine-readable results (the optimizer macrobench, the \
             simulator, agenda-hold and flow-scale benches, microbench ns/run) \
             to $(docv) as JSONL rows, one per section, and skip the figure \
             experiments."
          ~docv:"FILE")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Shrink the macrobench for CI (fewer epochs/specimens/rounds).")
  in
  let bench_domains =
    Arg.(
      value & opt int 4
      & info [ "bench-domains" ] ~doc:"Domain-pool size for the macrobench.")
  in
  let compare_base =
    Arg.(
      value
      & opt (some string) None
      & info [ "compare" ]
          ~doc:
            "Baseline results file (--json rows).  With --json, gate the \
             fresh results against it after the run; with --gate, compare two \
             existing files.  Exits 1 if any gated throughput metric (evals/s, \
             events/s, acks/s, lookups/s) falls more than --tolerance below \
             the baseline."
          ~docv:"FILE")
  in
  let gate_candidate =
    Arg.(
      value
      & opt (some string) None
      & info [ "gate" ]
          ~doc:
            "Run only the regression gate on an existing results file \
             (against --compare), without benchmarking."
          ~docv:"FILE")
  in
  let tolerance =
    Arg.(
      value & opt float 0.15
      & info [ "tolerance" ]
          ~doc:"Allowed fractional slowdown before --compare fails (0.15 = 15%).")
  in
  let gate_metrics =
    Arg.(
      value
      & opt (list string) []
      & info [ "gate-metrics" ]
          ~doc:
            "Comma-separated metric keys for the regression gate (default: \
             evals_per_sec, events_per_sec, acks_per_sec, lookups_per_sec, \
             the 4096-pending agenda hold rates, and the 4096-flow \
             incast/parking-lot scale rates).  CI's obs-overhead job gates \
             only evals_per_sec with a tight tolerance.")
  in
  let obs =
    Arg.(
      value & flag
      & info [ "obs" ]
          ~doc:
            "Enable runtime histograms and the span profiler during the \
             benchmarks; with --json, also write <FILE>.profile (collapsed \
             stacks) and <FILE>.profile.jsonl (one row per span).  Used by CI \
             to bound observability overhead.")
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Reproduce the paper's tables and figures")
    Term.(
      const run $ full $ only $ micro $ replications $ duration $ seed $ out
      $ json $ smoke $ bench_domains $ compare_base $ gate_candidate $ tolerance
      $ gate_metrics $ obs)

let () = exit (Cmd.eval cmd)
