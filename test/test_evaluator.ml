open Remy

let model = Net_model.onex ~sim_duration:3.0 ()

let specimens seed =
  Net_model.draw_many model (Remy_util.Prng.create seed) 3

let objective = Objective.proportional ~delta:1.0

let params =
  {
    Evaluator.objective;
    queue_capacity = model.Net_model.queue_capacity;
    duration = model.Net_model.sim_duration;
    topology = None;
  }

let eval ?override ?tally tree specs =
  Evaluator.score ?override ?tally ~domains:1 ~objective
    ~queue_capacity:model.Net_model.queue_capacity
    ~duration:model.Net_model.sim_duration tree specs

let test_deterministic () =
  let tree = Rule_tree.create () in
  let r1 = eval tree (specimens 5) and r2 = eval tree (specimens 5) in
  Alcotest.(check (float 0.)) "same specimens, same score" r1.Evaluator.mean_score
    r2.Evaluator.mean_score

let test_specimens_matter () =
  let tree = Rule_tree.create () in
  let r1 = eval tree (specimens 5) and r2 = eval tree (specimens 6) in
  Alcotest.(check bool) "different specimens, different score" true
    (r1.Evaluator.mean_score <> r2.Evaluator.mean_score)

let test_override_changes_score () =
  let tree = Rule_tree.create () in
  let specs = specimens 5 in
  let base = eval tree specs in
  let slow =
    eval ~override:(0, { Action.multiple = 0.; increment = 1.; intersend_ms = 500. })
      tree specs
  in
  Alcotest.(check bool) "throttled candidate scores differently" true
    (base.Evaluator.mean_score <> slow.Evaluator.mean_score);
  Alcotest.(check bool) "throttled candidate scores worse" true
    (slow.Evaluator.mean_score < base.Evaluator.mean_score)

let test_tally_collected () =
  let tree = Rule_tree.create () in
  let tally = Tally.create ~capacity:(Rule_tree.capacity tree) ~seed:2 () in
  ignore (eval ~tally tree (specimens 5));
  Alcotest.(check bool) "rule usage observed" true (Tally.count tally 0 > 0);
  Alcotest.(check bool) "memory samples kept" true (Tally.samples tally 0 <> []);
  (* A candidate task records no tally, so the pair is refused. *)
  match eval ~override:(0, Action.default) ~tally tree (specimens 5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "score ~override ~tally should raise Invalid_argument"

let test_scores_finite () =
  let tree = Rule_tree.create () in
  let r = eval tree (specimens 9) in
  List.iter
    (fun s -> if not (Float.is_finite s) then Alcotest.fail "non-finite sender score")
    r.Evaluator.sender_scores;
  Alcotest.(check bool) "mean finite" true (Float.is_finite r.Evaluator.mean_score)

let test_flow_summaries_exposed () =
  let tree = Rule_tree.create () in
  let s = List.hd (specimens 5) in
  let flows =
    Evaluator.specimen_flow_summaries ~queue_capacity:model.Net_model.queue_capacity
      ~duration:model.Net_model.sim_duration tree s
  in
  Alcotest.(check int) "one summary per sender" s.Net_model.n (Array.length flows)

(* --- pooled baseline + incremental candidate evaluation -------------- *)

(* A tree with enough rules that some specimens skip some rules. *)
let subdivided_tree () =
  let tree = Rule_tree.create () in
  ignore
    (Rule_tree.subdivide tree 0
       ~at:(Memory.make ~ack_ewma:150. ~send_ewma:150. ~rtt_ratio:1.5));
  tree

let test_baseline_matches_score () =
  let tree = subdivided_tree () in
  let specs = specimens 5 in
  let one_shot = eval tree specs in
  Par.Pool.with_pool ~domains:2 (fun pool ->
      let pooled, cache =
        (Evaluator.on_pool pool params ~incremental:true).Evaluator.eval_baseline tree
          specs
      in
      Alcotest.(check (float 0.)) "identical mean" one_shot.Evaluator.mean_score
        pooled.Evaluator.mean_score;
      Alcotest.(check int) "one cache entry per specimen" (List.length specs)
        (Array.length cache);
      Array.iter
        (fun (c : Evaluator.spec_cache) ->
          Alcotest.(check bool) "some rule touched or no sender on" true
            (Array.exists Fun.id c.Evaluator.touched
            || c.Evaluator.scores = []))
        cache)

let test_candidates_incremental_identical () =
  let tree = subdivided_tree () in
  let specs = specimens 7 in
  let cand_of m =
    { Action.multiple = m; increment = 1.; intersend_ms = 1. }
  in
  let candidates = [| cand_of 0.5; cand_of 1.0; cand_of 1.5 |] in
  Par.Pool.with_pool ~domains:2 (fun pool ->
      let cached = Evaluator.on_pool pool params ~incremental:true
      and uncached = Evaluator.on_pool pool params ~incremental:false in
      let _, cache = cached.Evaluator.eval_baseline tree specs in
      List.iter
        (fun rule ->
          let on, (sims_on, skips_on) =
            cached.Evaluator.eval_candidates tree ~rule candidates cache
          in
          let off, (sims_off, skips_off) =
            uncached.Evaluator.eval_candidates tree ~rule candidates cache
          in
          Alcotest.(check (array (float 0.)))
            (Printf.sprintf "rule %d: cache on = cache off" rule)
            off on;
          (* And both match the one-shot override evaluation. *)
          Array.iteri
            (fun i cand ->
              let direct = (eval ~override:(rule, cand) tree specs).Evaluator.mean_score in
              Alcotest.(check (float 0.))
                (Printf.sprintf "rule %d cand %d matches one-shot" rule i)
                direct on.(i))
            candidates;
          Alcotest.(check int) "off simulates everything"
            (Array.length candidates * List.length specs)
            sims_off;
          Alcotest.(check int) "off skips nothing" 0 skips_off;
          Alcotest.(check int) "sims + skips = grid" sims_off (sims_on + skips_on))
        (Rule_tree.live_ids tree))

let test_candidates_skip_untouched () =
  (* Across all rules of a subdivided tree, at least one (rule, specimen)
     pair must be skippable — otherwise the cache test is vacuous. *)
  let tree = subdivided_tree () in
  let specs = specimens 11 in
  Par.Pool.with_pool ~domains:1 (fun pool ->
      let backend = Evaluator.on_pool pool params ~incremental:true in
      let _, cache = backend.Evaluator.eval_baseline tree specs in
      let total_skips =
        List.fold_left
          (fun acc rule ->
            let _, (_, skips) =
              backend.Evaluator.eval_candidates tree ~rule [| Action.default |] cache
            in
            acc + skips)
          0 (Rule_tree.live_ids tree)
      in
      Alcotest.(check bool) "some specimen skipped for some rule" true
        (total_skips > 0))

let tests =
  [
    Alcotest.test_case "deterministic" `Slow test_deterministic;
    Alcotest.test_case "specimens matter" `Slow test_specimens_matter;
    Alcotest.test_case "override changes score" `Slow test_override_changes_score;
    Alcotest.test_case "tally collected" `Slow test_tally_collected;
    Alcotest.test_case "scores finite" `Slow test_scores_finite;
    Alcotest.test_case "flow summaries exposed" `Quick test_flow_summaries_exposed;
    Alcotest.test_case "pooled baseline matches one-shot score" `Slow
      test_baseline_matches_score;
    Alcotest.test_case "incremental candidates bit-identical" `Slow
      test_candidates_incremental_identical;
    Alcotest.test_case "incremental cache skips untouched specimens" `Slow
      test_candidates_skip_untouched;
  ]
