open Remy
open Remy_util

let version = 1

type eval_params = Evaluator.params = {
  objective : Objective.t;
  queue_capacity : int;
  duration : float;
  topology : string option;
}

type task = Evaluator.task =
  | Baseline of { spec : Net_model.specimen }
  | Candidate of { rule : int; action : Action.t; spec : Net_model.specimen }

type outcome = Evaluator.outcome =
  | Baseline_result of {
      scores : float list;
      slots : (int * int * Memory.t list) list;
    }
  | Candidate_result of { scores : float list }

type msg =
  | Hello of { version : int; config_hash : string; params : eval_params }
  | Welcome of { config_hash : string; pid : int }
  | Reject of { reason : string }
  | Tree of { gen : int; tree : Rule_tree.t }
  | Task of { index : int; task : task }
  | Result of { index : int; outcome : outcome }
  | Ping of { seq : int }
  | Pong of { seq : int }
  | Shutdown

let ( let* ) = Result.bind

(* Prefix decoding errors with the construct being decoded, so a bad
   frame names its path: "task: bad specimen: n: expected int". *)
let ctx name = Result.map_error (fun e -> name ^ ": " ^ e)

let field_int s k =
  let* v = Sexp.field s k in
  ctx k (Sexp.to_int v)

let field_float s k =
  let* v = Sexp.field s k in
  ctx k (Sexp.to_float v)

let field_atom s k =
  let* v = Sexp.field s k in
  ctx k (Sexp.to_atom v)

(* --- probability distributions (Remy_util.Dist) --- *)

let dist_to_sexp (d : Dist.t) =
  match d with
  | Dist.Constant x -> Sexp.list [ Sexp.atom "const"; Sexp.float x ]
  | Dist.Uniform (a, b) ->
      Sexp.list [ Sexp.atom "uniform"; Sexp.float a; Sexp.float b ]
  | Dist.Exponential m -> Sexp.list [ Sexp.atom "exp"; Sexp.float m ]
  | Dist.Pareto { xm; alpha; shift } ->
      Sexp.list
        [ Sexp.atom "pareto"; Sexp.float xm; Sexp.float alpha; Sexp.float shift ]
  | Dist.Empirical vs ->
      Sexp.list
        (Sexp.atom "empirical" :: (Array.to_list vs |> List.map Sexp.float))

let dist_of_sexp s =
  ctx "distribution"
    (match s with
    | Sexp.List [ Sexp.Atom "const"; x ] ->
        let* x = Sexp.to_float x in
        Ok (Dist.Constant x)
    | Sexp.List [ Sexp.Atom "uniform"; a; b ] ->
        let* a = Sexp.to_float a in
        let* b = Sexp.to_float b in
        Ok (Dist.Uniform (a, b))
    | Sexp.List [ Sexp.Atom "exp"; m ] ->
        let* m = Sexp.to_float m in
        Ok (Dist.Exponential m)
    | Sexp.List [ Sexp.Atom "pareto"; xm; alpha; shift ] ->
        let* xm = Sexp.to_float xm in
        let* alpha = Sexp.to_float alpha in
        let* shift = Sexp.to_float shift in
        Ok (Dist.Pareto { xm; alpha; shift })
    | Sexp.List (Sexp.Atom "empirical" :: vs) ->
        let* vs =
          List.fold_right
            (fun v acc ->
              let* acc = acc in
              let* v = Sexp.to_float v in
              Ok (v :: acc))
            vs (Ok [])
        in
        Ok (Dist.Empirical (Array.of_list vs))
    | _ -> Error "unknown form")

(* --- workloads --- *)

let on_spec_to_sexp (o : Remy_sim.Workload.on_spec) =
  match o with
  | Remy_sim.Workload.By_time d -> Sexp.list [ Sexp.atom "by-time"; dist_to_sexp d ]
  | Remy_sim.Workload.By_bytes d ->
      Sexp.list [ Sexp.atom "by-bytes"; dist_to_sexp d ]
  | Remy_sim.Workload.Icsi_flow_lengths -> Sexp.list [ Sexp.atom "icsi" ]

let on_spec_of_sexp s =
  ctx "on-spec"
    (match s with
    | Sexp.List [ Sexp.Atom "by-time"; d ] ->
        let* d = dist_of_sexp d in
        Ok (Remy_sim.Workload.By_time d)
    | Sexp.List [ Sexp.Atom "by-bytes"; d ] ->
        let* d = dist_of_sexp d in
        Ok (Remy_sim.Workload.By_bytes d)
    | Sexp.List [ Sexp.Atom "icsi" ] -> Ok Remy_sim.Workload.Icsi_flow_lengths
    | _ -> Error "unknown form")

(* --- specimens --- *)

let specimen_to_sexp (s : Net_model.specimen) =
  Sexp.list
    [
      Sexp.atom "spec";
      Sexp.list [ Sexp.atom "n"; Sexp.int s.Net_model.n ];
      Sexp.list [ Sexp.atom "link"; Sexp.float s.Net_model.spec_link_mbps ];
      Sexp.list [ Sexp.atom "rtt"; Sexp.float s.Net_model.rtt_s ];
      Sexp.list [ Sexp.atom "seed"; Sexp.int s.Net_model.spec_seed ];
      Sexp.list
        [
          Sexp.atom "off";
          dist_to_sexp s.Net_model.workload.Remy_sim.Workload.off_time;
        ];
      Sexp.list
        [
          Sexp.atom "on";
          on_spec_to_sexp s.Net_model.workload.Remy_sim.Workload.on_spec;
        ];
    ]

let specimen_of_sexp s =
  ctx "specimen"
    (match s with
    | Sexp.List (Sexp.Atom "spec" :: _) ->
        let* n = field_int s "n" in
        let* link = field_float s "link" in
        let* rtt = field_float s "rtt" in
        let* seed = field_int s "seed" in
        let* off = Sexp.field s "off" in
        let* off = dist_of_sexp off in
        let* on = Sexp.field s "on" in
        let* on = on_spec_of_sexp on in
        Ok
          {
            Net_model.n;
            spec_link_mbps = link;
            rtt_s = rtt;
            spec_seed = seed;
            workload = { Remy_sim.Workload.off_time = off; on_spec = on };
          }
    | _ -> Error "expected (spec ...)")

(* --- actions and memories --- *)

let action_to_sexp (a : Action.t) =
  Sexp.list
    [
      Sexp.atom "act";
      Sexp.float a.Action.multiple;
      Sexp.float a.Action.increment;
      Sexp.float a.Action.intersend_ms;
    ]

let action_of_sexp s =
  ctx "action"
    (match s with
    | Sexp.List [ Sexp.Atom "act"; m; b; r ] ->
        let* multiple = Sexp.to_float m in
        let* increment = Sexp.to_float b in
        let* intersend_ms = Sexp.to_float r in
        Ok { Action.multiple; increment; intersend_ms }
    | _ -> Error "expected (act m b r)")

let memory_to_sexp (m : Memory.t) =
  Sexp.list
    [
      Sexp.float m.Memory.ack_ewma;
      Sexp.float m.Memory.send_ewma;
      Sexp.float m.Memory.rtt_ratio;
    ]

let memory_of_sexp s =
  ctx "memory"
    (match s with
    | Sexp.List [ a; sd; r ] ->
        let* ack_ewma = Sexp.to_float a in
        let* send_ewma = Sexp.to_float sd in
        let* rtt_ratio = Sexp.to_float r in
        Ok (Memory.make ~ack_ewma ~send_ewma ~rtt_ratio)
    | _ -> Error "expected (ack send rtt)")

(* --- score lists and tally slots --- *)

let scores_to_sexp scores =
  Sexp.list (Sexp.atom "scores" :: List.map Sexp.float scores)

let scores_of_sexp s =
  ctx "scores"
    (match s with
    | Sexp.List (Sexp.Atom "scores" :: vs) ->
        List.fold_right
          (fun v acc ->
            let* acc = acc in
            let* v = Sexp.to_float v in
            Ok (v :: acc))
          vs (Ok [])
    | _ -> Error "expected (scores ...)")

let slot_to_sexp (id, count, kept) =
  Sexp.list
    (Sexp.atom "slot" :: Sexp.int id :: Sexp.int count
    :: List.map memory_to_sexp kept)

let slot_of_sexp s =
  ctx "slot"
    (match s with
    | Sexp.List (Sexp.Atom "slot" :: id :: count :: mems) ->
        let* id = Sexp.to_int id in
        let* count = Sexp.to_int count in
        let* kept =
          List.fold_right
            (fun m acc ->
              let* acc = acc in
              let* m = memory_of_sexp m in
              Ok (m :: acc))
            mems (Ok [])
        in
        Ok (id, count, kept)
    | _ -> Error "expected (slot id count mem...)")

let slots_to_sexp slots =
  Sexp.list (Sexp.atom "slots" :: List.map slot_to_sexp slots)

let slots_of_sexp s =
  ctx "slots"
    (match s with
    | Sexp.List (Sexp.Atom "slots" :: ss) ->
        List.fold_right
          (fun sl acc ->
            let* acc = acc in
            let* sl = slot_of_sexp sl in
            Ok (sl :: acc))
          ss (Ok [])
    | _ -> Error "expected (slots ...)")

(* --- eval params --- *)

let params_to_sexp p =
  Sexp.list
    [
      Sexp.atom "params";
      Sexp.list [ Sexp.atom "alpha"; Sexp.float p.objective.Objective.alpha ];
      Sexp.list [ Sexp.atom "beta"; Sexp.float p.objective.Objective.beta ];
      Sexp.list [ Sexp.atom "delta"; Sexp.float p.objective.Objective.delta ];
      Sexp.list [ Sexp.atom "queue"; Sexp.int p.queue_capacity ];
      Sexp.list [ Sexp.atom "duration"; Sexp.float p.duration ];
      Sexp.list
        [
          Sexp.atom "topology";
          Sexp.atom (match p.topology with None -> "none" | Some t -> t);
        ];
    ]

let params_of_sexp s =
  ctx "params"
    (match s with
    | Sexp.List (Sexp.Atom "params" :: _) ->
        let* alpha = field_float s "alpha" in
        let* beta = field_float s "beta" in
        let* delta = field_float s "delta" in
        let* queue_capacity = field_int s "queue" in
        let* duration = field_float s "duration" in
        let* topology = field_atom s "topology" in
        Ok
          {
            objective = { Objective.alpha; beta; delta };
            queue_capacity;
            duration;
            topology = (if topology = "none" then None else Some topology);
          }
    | _ -> Error "expected (params ...)")

(* --- tasks and outcomes --- *)

let task_to_sexp = function
  | Baseline { spec } -> Sexp.list [ Sexp.atom "baseline"; specimen_to_sexp spec ]
  | Candidate { rule; action; spec } ->
      Sexp.list
        [
          Sexp.atom "candidate";
          Sexp.int rule;
          action_to_sexp action;
          specimen_to_sexp spec;
        ]

let task_of_sexp s =
  ctx "task"
    (match s with
    | Sexp.List [ Sexp.Atom "baseline"; spec ] ->
        let* spec = specimen_of_sexp spec in
        Ok (Baseline { spec })
    | Sexp.List [ Sexp.Atom "candidate"; rule; action; spec ] ->
        let* rule = Sexp.to_int rule in
        let* action = action_of_sexp action in
        let* spec = specimen_of_sexp spec in
        Ok (Candidate { rule; action; spec })
    | _ -> Error "unknown form")

let outcome_to_sexp = function
  | Baseline_result { scores; slots } ->
      Sexp.list
        [ Sexp.atom "baseline"; scores_to_sexp scores; slots_to_sexp slots ]
  | Candidate_result { scores } ->
      Sexp.list [ Sexp.atom "candidate"; scores_to_sexp scores ]

let outcome_of_sexp s =
  ctx "outcome"
    (match s with
    | Sexp.List [ Sexp.Atom "baseline"; scores; slots ] ->
        let* scores = scores_of_sexp scores in
        let* slots = slots_of_sexp slots in
        Ok (Baseline_result { scores; slots })
    | Sexp.List [ Sexp.Atom "candidate"; scores ] ->
        let* scores = scores_of_sexp scores in
        Ok (Candidate_result { scores })
    | _ -> Error "unknown form")

(* --- top-level messages --- *)

let to_sexp = function
  | Hello { version; config_hash; params } ->
      Sexp.list
        [
          Sexp.atom "hello";
          Sexp.list [ Sexp.atom "version"; Sexp.int version ];
          Sexp.list [ Sexp.atom "config"; Sexp.string config_hash ];
          params_to_sexp params;
        ]
  | Welcome { config_hash; pid } ->
      Sexp.list
        [
          Sexp.atom "welcome";
          Sexp.list [ Sexp.atom "config"; Sexp.string config_hash ];
          Sexp.list [ Sexp.atom "pid"; Sexp.int pid ];
        ]
  | Reject { reason } -> Sexp.list [ Sexp.atom "reject"; Sexp.string reason ]
  | Tree { gen; tree } ->
      Sexp.list
        [
          Sexp.atom "tree";
          Sexp.list [ Sexp.atom "gen"; Sexp.int gen ];
          Rule_tree.to_sexp_full tree;
        ]
  | Task { index; task } ->
      Sexp.list [ Sexp.atom "task"; Sexp.int index; task_to_sexp task ]
  | Result { index; outcome } ->
      Sexp.list [ Sexp.atom "result"; Sexp.int index; outcome_to_sexp outcome ]
  | Ping { seq } -> Sexp.list [ Sexp.atom "ping"; Sexp.int seq ]
  | Pong { seq } -> Sexp.list [ Sexp.atom "pong"; Sexp.int seq ]
  | Shutdown -> Sexp.list [ Sexp.atom "shutdown" ]

(* Find the whole sub-list headed by [k] (unlike [Sexp.field], which
   unwraps it). *)
let sub s k =
  match s with
  | Sexp.List items -> (
      match
        List.find_opt
          (function Sexp.List (Sexp.Atom h :: _) -> h = k | _ -> false)
          items
      with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "missing %s" k))
  | Sexp.Atom _ -> Error (Printf.sprintf "missing %s" k)

let of_sexp s =
  match s with
  | Sexp.List (Sexp.Atom "hello" :: _) ->
      ctx "hello"
        (let* version = field_int s "version" in
         let* config_hash = field_atom s "config" in
         let* params = sub s "params" in
         let* params = params_of_sexp params in
         Ok (Hello { version; config_hash; params }))
  | Sexp.List (Sexp.Atom "welcome" :: _) ->
      ctx "welcome"
        (let* config_hash = field_atom s "config" in
         let* pid = field_int s "pid" in
         Ok (Welcome { config_hash; pid }))
  | Sexp.List [ Sexp.Atom "reject"; reason ] ->
      ctx "reject"
        (let* reason = Sexp.to_atom reason in
         Ok (Reject { reason }))
  | Sexp.List [ Sexp.Atom "tree"; gen_field; tree ] ->
      ctx "tree"
        (let* gen =
           match gen_field with
           | Sexp.List [ Sexp.Atom "gen"; g ] -> Sexp.to_int g
           | _ -> Error "missing gen"
         in
         let* tree = Rule_tree.of_sexp_full tree in
         Ok (Tree { gen; tree }))
  | Sexp.List [ Sexp.Atom "task"; index; task ] ->
      ctx "task"
        (let* index = Sexp.to_int index in
         let* task = task_of_sexp task in
         Ok (Task { index; task }))
  | Sexp.List [ Sexp.Atom "result"; index; outcome ] ->
      ctx "result"
        (let* index = Sexp.to_int index in
         let* outcome = outcome_of_sexp outcome in
         Ok (Result { index; outcome }))
  | Sexp.List [ Sexp.Atom "ping"; seq ] ->
      ctx "ping"
        (let* seq = Sexp.to_int seq in
         Ok (Ping { seq }))
  | Sexp.List [ Sexp.Atom "pong"; seq ] ->
      ctx "pong"
        (let* seq = Sexp.to_int seq in
         Ok (Pong { seq }))
  | Sexp.List [ Sexp.Atom "shutdown" ] -> Ok Shutdown
  | Sexp.List (Sexp.Atom h :: _) ->
      Error (Printf.sprintf "unknown message %S" h)
  | _ -> Error "unknown message form"
