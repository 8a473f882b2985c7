open Remy_cc
open Remy_sim

type result = { mean_score : float; sender_scores : float list }

type spec_cache = {
  spec : Net_model.specimen;
  scores : float list;
  touched : bool array;
}

type params = {
  objective : Objective.t;
  queue_capacity : int;
  duration : float;
  topology : string option;
}

type task =
  | Baseline of { spec : Net_model.specimen }
  | Candidate of { rule : int; action : Action.t; spec : Net_model.specimen }

type outcome =
  | Baseline_result of {
      scores : float list;
      slots : (int * int * Memory.t list) list;
    }
  | Candidate_result of { scores : float list }

let timed_sim run =
  Remy_obs.Profiler.span "sim" (fun () ->
      if Remy_obs.Metrics.enabled () then begin
        let t0 = Remy_obs.Clock.now_s () in
        let r = run () in
        Remy_obs.Metrics.record Remy_obs.Metrics.Sim_wall
          (Remy_obs.Clock.now_s () -. t0);
        r
      end
      else run ())

let specimen_flow_summaries ?override ?tally ?topology ~queue_capacity ~duration
    tree (s : Net_model.specimen) =
  let cc = Remycc.factory ?override ?tally tree in
  let config =
    match topology with
    | None ->
      Topology.dumbbell
        {
          Dumbbell.service = Dumbbell.Rate_mbps s.Net_model.spec_link_mbps;
          qdisc = Dumbbell.Droptail queue_capacity;
          flows =
            Array.init s.Net_model.n (fun _ ->
                {
                  Dumbbell.cc;
                  rtt = s.Net_model.rtt_s;
                  workload = s.Net_model.workload;
                  start = `Off_draw;
                });
          duration;
          seed = s.Net_model.spec_seed;
          min_rto = 1.0;
        }
    | Some name ->
      let builder =
        match Topology.builder_of_name name with
        | Some b -> b
        | None -> invalid_arg (Printf.sprintf "Evaluator: unknown topology %S" name)
      in
      {
        (builder ~n:s.Net_model.n ~cc ~workload:s.Net_model.workload
           ~link_mbps:s.Net_model.spec_link_mbps ~rtt_s:s.Net_model.rtt_s
           ~queue_capacity ~duration ~seed:s.Net_model.spec_seed ())
        with
        Topology.min_rto = 1.0;
      }
  in
  (* Every sender runs the same table, so the whole population is one
     SoA fleet (bit-identical to per-record RemyCC senders); a fresh
     factory per run. *)
  let sender_factory = Fleet.factory ?override ?tally tree in
  (timed_sim (fun () -> Topology.run ~sender_factory config)).Topology.flows

let specimen_scores ?override ?tally p tree s =
  let flows =
    specimen_flow_summaries ?override ?tally ?topology:p.topology
      ~queue_capacity:p.queue_capacity ~duration:p.duration tree s
  in
  let min_rtt_ms = s.Net_model.rtt_s *. 1e3 in
  Array.to_list flows
  |> List.filter_map (fun (f : Metrics.flow_summary) ->
         if f.Metrics.on_time <= 0. then None
         else
           Some
             (Objective.score p.objective ~throughput_mbps:f.Metrics.throughput_mbps
                ~mean_rtt_ms:(f.Metrics.mean_queueing_delay_ms +. min_rtt_ms)))

(* Reduce per-specimen sender-score lists (in specimen order) to the
   run's result.  Fresh and cached specimens both funnel through this,
   so the arithmetic (and therefore the bits) cannot depend on where a
   specimen's scores came from. *)
let result_of_spec_scores (per_spec : float list array) =
  let sender_scores = List.concat_map Fun.id (Array.to_list per_spec) in
  let spec_means =
    Array.to_list per_spec
    |> List.filter_map (fun scores ->
           match scores with
           | [] -> None
           | l -> Some (List.fold_left ( +. ) 0. l /. float_of_int (List.length l)))
  in
  let mean_score =
    match spec_means with
    | [] -> neg_infinity
    | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  { mean_score; sender_scores }

let run_task p tree = function
  | Baseline { spec } ->
    let tally =
      Tally.create ~capacity:(Rule_tree.capacity tree)
        ~seed:(spec.Net_model.spec_seed lxor 0x5EED) ()
    in
    let scores = specimen_scores ~tally p tree spec in
    Baseline_result { scores; slots = Tally.export tally }
  | Candidate { rule; action; spec } ->
    let scores = specimen_scores ~override:(rule, action) p tree spec in
    Candidate_result { scores }

let scores_of = function
  | Baseline_result { scores; _ } | Candidate_result { scores } -> scores

let slots_of = function
  | Baseline_result { slots; _ } -> slots
  | Candidate_result _ -> invalid_arg "Evaluator: a candidate outcome carries no tally"

type backend = {
  eval_baseline :
    ?tally:Tally.t ->
    Rule_tree.t ->
    Net_model.specimen list ->
    result * spec_cache array;
  eval_candidates :
    Rule_tree.t ->
    rule:int ->
    Action.t array ->
    spec_cache array ->
    float array * (int * int);
}

let resim_indices ~incremental ~rule (cache : spec_cache array) =
  Array.to_list cache
  |> List.mapi (fun i c -> (i, c))
  |> List.filter (fun (_, c) ->
         (not incremental) || (rule < Array.length c.touched && c.touched.(rule)))
  |> List.map fst |> Array.of_list

let backend ~incremental ?(sync = ignore) map =
  let eval_baseline ?tally tree specimens =
    sync tree;
    let specs = Array.of_list specimens in
    let outcomes = map tree (Array.map (fun spec -> Baseline { spec }) specs) in
    let capacity = Rule_tree.capacity tree in
    let cache =
      Array.mapi
        (fun i outcome ->
          let slots = slots_of outcome in
          Option.iter (fun dst -> Tally.merge_exported dst slots) tally;
          let touched = Array.make capacity false in
          List.iter (fun (id, _, _) -> if id < capacity then touched.(id) <- true) slots;
          { spec = specs.(i); scores = scores_of outcome; touched })
        outcomes
    in
    (result_of_spec_scores (Array.map (fun c -> c.scores) cache), cache)
  in
  let eval_candidates tree ~rule candidates cache =
    let resim = resim_indices ~incremental ~rule cache in
    let n_resim = Array.length resim in
    (* One flat candidate x specimen grid: load balances across the whole
       round instead of nesting sequential specimen sweeps inside an outer
       per-candidate map. *)
    let grid =
      Array.init
        (Array.length candidates * n_resim)
        (fun k ->
          let spec = cache.(resim.(k mod n_resim)).spec in
          Candidate { rule; action = candidates.(k / n_resim); spec })
    in
    let fresh = Array.map scores_of (map tree grid) in
    let means =
      Array.mapi
        (fun ci _ ->
          let per_spec = Array.map (fun c -> c.scores) cache in
          Array.iteri (fun j si -> per_spec.(si) <- fresh.((ci * n_resim) + j)) resim;
          (result_of_spec_scores per_spec).mean_score)
        candidates
    in
    let simulated = Array.length grid in
    (means, (simulated, (Array.length candidates * Array.length cache) - simulated))
  in
  { eval_baseline; eval_candidates }

let on_pool pool params ~incremental =
  backend ~incremental (fun tree -> Par.Pool.map pool (run_task params tree))

let score ?override ?tally ?topology ~domains ~objective ~queue_capacity ~duration
    tree specimens =
  let task =
    match (override, tally) with
    | None, _ -> fun spec -> Baseline { spec }
    | Some (rule, action), None -> fun spec -> Candidate { rule; action; spec }
    | Some _, Some _ -> invalid_arg "Evaluator.score: ~override with ~tally"
  in
  let params = { objective; queue_capacity; duration; topology } in
  let outcomes =
    Par.Pool.with_pool ~domains @@ fun pool ->
    Par.Pool.map pool (run_task params tree) (Array.of_list (List.map task specimens))
  in
  Option.iter
    (fun dst -> Array.iter (fun o -> Tally.merge_exported dst (slots_of o)) outcomes)
    tally;
  result_of_spec_scores (Array.map scores_of outcomes)
