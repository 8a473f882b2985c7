open Remy_cc
open Remy_sim

type result = { mean_score : float; sender_scores : float list }

type spec_cache = {
  spec : Net_model.specimen;
  scores : float list;
  touched : bool array;
}

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

let specimen_scores ?override ?tally ?topology ~objective ~queue_capacity
    ~duration tree s =
  let flows =
    specimen_flow_summaries ?override ?tally ?topology ~queue_capacity ~duration
      tree s
  in
  let min_rtt_ms = s.Net_model.rtt_s *. 1e3 in
  Array.to_list flows
  |> List.filter_map (fun (f : Metrics.flow_summary) ->
         if f.Metrics.on_time <= 0. then None
         else
           Some
             (Objective.score objective ~throughput_mbps:f.Metrics.throughput_mbps
                ~mean_rtt_ms:(f.Metrics.mean_queueing_delay_ms +. min_rtt_ms)))

(* Reduce per-specimen sender-score lists to the run's result.  Every
   evaluation path funnels through this so the arithmetic (and therefore
   the bits) is identical whether a specimen's scores came from a fresh
   simulation or the incremental cache. *)
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

let score ?override ?tally ?topology ~domains ~objective ~queue_capacity
    ~duration tree specimens =
  let specs = Array.of_list specimens in
  let per_spec =
    Par.Pool.with_pool ~domains @@ fun pool ->
    Par.Pool.map pool
      (fun (s : Net_model.specimen) ->
        (* Each specimen gets a private tally (merged afterwards) so the
           parallel workers never share mutable state. *)
        let local_tally =
          Option.map
            (fun _ ->
              Tally.create ~capacity:(Rule_tree.capacity tree)
                ~seed:(s.Net_model.spec_seed lxor 0x5EED) ())
            tally
        in
        let scores =
          specimen_scores ?override ?tally:local_tally ?topology ~objective
            ~queue_capacity ~duration tree s
        in
        (scores, local_tally))
      specs
  in
  (match tally with
  | Some dst ->
    Array.iter
      (fun (_, local) -> match local with Some t -> Tally.merge_into dst t | None -> ())
      per_spec
  | None -> ());
  result_of_spec_scores (Array.map fst per_spec)

let baseline ~pool ?tally ?topology ~objective ~queue_capacity ~duration tree
    specimens =
  let specs = Array.of_list specimens in
  let capacity = Rule_tree.capacity tree in
  let per_spec =
    Par.Pool.map pool
      (fun (s : Net_model.specimen) ->
        (* A private tally per specimen: it feeds the caller's merged
           tally (when asked for) and, always, the touched-rule set that
           licenses incremental candidate evaluation. *)
        let local_tally =
          Tally.create ~capacity ~seed:(s.Net_model.spec_seed lxor 0x5EED) ()
        in
        let scores =
          specimen_scores ~tally:local_tally ?topology ~objective ~queue_capacity
            ~duration tree s
        in
        let touched = Array.init capacity (fun id -> Tally.count local_tally id > 0) in
        ({ spec = s; scores; touched }, local_tally))
      specs
  in
  (match tally with
  | Some dst -> Array.iter (fun (_, local) -> Tally.merge_into dst local) per_spec
  | None -> ());
  let cache = Array.map fst per_spec in
  (result_of_spec_scores (Array.map (fun c -> c.scores) cache), cache)

let resim_indices ~incremental ~rule (cache : spec_cache array) =
  Array.to_list cache
  |> List.mapi (fun i c -> (i, c))
  |> List.filter (fun (_, c) ->
         (not incremental) || (rule < Array.length c.touched && c.touched.(rule)))
  |> List.map fst |> Array.of_list

let candidate_grid ~candidates ~resim =
  let n_resim = Array.length resim in
  Array.init
    (Array.length candidates * n_resim)
    (fun k -> (k / n_resim, resim.(k mod n_resim)))

let reduce_candidates ~(candidates : Action.t array) ~(cache : spec_cache array)
    ~resim ~(fresh : float list array) =
  let n_spec = Array.length cache in
  let n_resim = Array.length resim in
  let scores =
    Array.mapi
      (fun ci _ ->
        let per_spec = Array.init n_spec (fun si -> cache.(si).scores) in
        Array.iteri (fun j si -> per_spec.(si) <- fresh.((ci * n_resim) + j)) resim;
        (result_of_spec_scores per_spec).mean_score)
      candidates
  in
  let simulated = Array.length candidates * n_resim in
  let skipped = (Array.length candidates * n_spec) - simulated in
  (scores, (simulated, skipped))

let candidate_scores ~pool ~incremental ?topology ~objective ~queue_capacity
    ~duration tree ~rule (candidates : Action.t array) (cache : spec_cache array) =
  let resim = resim_indices ~incremental ~rule cache in
  (* One flat candidate x specimen grid: load balances across the whole
     round instead of nesting sequential specimen sweeps inside an outer
     per-candidate map. *)
  let grid = candidate_grid ~candidates ~resim in
  let fresh =
    Par.Pool.map pool
      (fun (ci, si) ->
        specimen_scores ~override:(rule, candidates.(ci)) ?topology ~objective
          ~queue_capacity ~duration tree cache.(si).spec)
      grid
  in
  reduce_candidates ~candidates ~cache ~resim ~fresh
