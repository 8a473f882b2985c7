open Remy
module Frame = Remy_dist.Frame
module Wire = Remy_dist.Wire
module Worker = Remy_dist.Worker
module Coordinator = Remy_dist.Coordinator
module Sexp = Remy_util.Sexp

(* The distributed-training transport and its headline invariant: any
   message survives the wire bit-exactly, anything torn or hostile is
   rejected with a named position, and a coordinator driving worker
   processes — even through a mid-batch SIGKILL — produces results
   bit-identical to the in-process evaluator. *)

(* Coordinator tests start real worker processes from the spec that
   [remy_train --workers N] uses: [specs_of_string] re-execs this test
   binary with [Worker.child_arg], and test_main hands such a child to
   [Worker.serve_if_child] before alcotest runs. *)
let local_workers n =
  match Coordinator.specs_of_string (string_of_int n) with
  | Ok specs -> specs
  | Error e -> failwith e

(* --- frame layer ------------------------------------------------------ *)

let gen_sexp =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          map Sexp.atom (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
        else
          frequency
            [
              (2, map Sexp.atom (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)));
              (1, map Sexp.list (list_size (int_range 0 4) (self (n / 2))));
            ]))

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:300
    (QCheck.make gen_sexp) (fun s ->
      match Frame.decode (Frame.encode s) ~pos:0 with
      | Ok (s', consumed) ->
        s' = s && consumed = String.length (Frame.encode s)
      | Error _ -> false)

let prop_frame_roundtrip_fd =
  (* Same property through an actual socket, exercising write/read. *)
  QCheck.Test.make ~name:"write/read roundtrip over socketpair" ~count:50
    (QCheck.make gen_sexp) (fun s ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close a; Unix.close b)
        (fun () ->
          Frame.write a s;
          Frame.read b = Ok s))

let expect_corrupt label input ~mentions =
  match Frame.decode input ~pos:0 with
  | Ok _ -> Alcotest.failf "%s: decoded garbage" label
  | Error diag ->
    List.iter
      (fun needle ->
        let present =
          let n = String.length diag and m = String.length needle in
          let rec go i = i + m <= n && (String.sub diag i m = needle || go (i + 1)) in
          go 0
        in
        if not present then
          Alcotest.failf "%s: diagnostic %S does not mention %S" label diag
            needle)
      mentions

let test_frame_rejections () =
  expect_corrupt "truncated header" "RMY" ~mentions:[ "truncated header"; "3 of 8" ];
  expect_corrupt "bad magic" "GARBAGE!" ~mentions:[ "byte 0"; "RMYD"; "GARB" ];
  (* A length word claiming more than max_payload is corruption. *)
  expect_corrupt "oversized length"
    ("RMYD" ^ "\x7f\xff\xff\xff")
    ~mentions:[ "byte 4"; "exceeds" ];
  let whole = Frame.encode (Sexp.atom "hello") in
  expect_corrupt "truncated payload"
    (String.sub whole 0 (String.length whole - 2))
    ~mentions:[ "truncated payload"; "3 of 5" ];
  (* Valid framing around an unparseable payload: the parser's position
     is relayed with the payload's byte offset. *)
  let broken = "RMYD" ^ "\x00\x00\x00\x02" ^ "((" in
  expect_corrupt "garbage payload" broken ~mentions:[ "payload at byte 8" ]

let test_frame_read_eof () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close a;
  let r = Frame.read b in
  Unix.close b;
  Alcotest.(check bool) "clean close reads as Eof" true (r = Error Frame.Eof)

let test_frame_read_torn () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let whole = Frame.encode (Sexp.atom "hello") in
  let half = String.length whole - 2 in
  ignore (Unix.write_substring a whole 0 half);
  Unix.close a;
  let r = Frame.read b in
  Unix.close b;
  match r with
  | Error (Frame.Corrupt diag) ->
    Alcotest.(check bool)
      (Printf.sprintf "torn payload named: %s" diag)
      true
      (String.length diag >= 17 && String.sub diag 0 17 = "truncated payload")
  | _ -> Alcotest.fail "torn frame not reported as Corrupt"

(* --- wire codec ------------------------------------------------------- *)

let mem a s r = Memory.make ~ack_ewma:a ~send_ewma:s ~rtt_ratio:r

(* A tree with retired rules, distinct actions and epochs — everything
   the checkpoint-grade serialization must carry to keep worker-side
   evaluation identical. *)
let interesting_tree () =
  let tree = Rule_tree.create () in
  let kids = Rule_tree.subdivide tree 0 ~at:(mem 100. 200. 4.) in
  List.iteri
    (fun i id ->
      Rule_tree.set_action tree id
        {
          Action.multiple = 0.5 +. (0.1 *. float_of_int i);
          increment = float_of_int (i - 3);
          intersend_ms = 0.05 *. float_of_int (i + 1);
        };
      Rule_tree.set_epoch tree id (i mod 3))
    kids;
  (match kids with
  | k :: _ -> ignore (Rule_tree.subdivide tree k ~at:(mem 50. 60. 2.))
  | [] -> ());
  tree

let specimen ?(seed = 421) ?(n = 3) () =
  {
    Net_model.n;
    spec_link_mbps = 14.27;
    rtt_s = 0.1519;
    workload =
      {
        Remy_sim.Workload.off_time = Remy_util.Dist.Exponential 0.5;
        on_spec = Remy_sim.Workload.By_time (Remy_util.Dist.Constant 1.0);
      };
    spec_seed = seed;
  }

let params =
  {
    Wire.objective = Objective.proportional ~delta:1.0;
    queue_capacity = 1000;
    duration = 1.5;
    topology = None;
  }

(* Rendered-string equality: the canonical encoding is what crosses the
   wire and what Checkpoint hashes, so it is exactly the equality the
   system cares about (and it sidesteps float/NaN structural compare). *)
let check_msg_roundtrip label msg =
  match Wire.of_sexp (Wire.to_sexp msg) with
  | Error e -> Alcotest.failf "%s: decode failed: %s" label e
  | Ok msg' ->
    Alcotest.(check string) label
      (Sexp.to_string (Wire.to_sexp msg))
      (Sexp.to_string (Wire.to_sexp msg'))

let test_msg_roundtrips () =
  check_msg_roundtrip "hello"
    (Wire.Hello { version = Wire.version; config_hash = "0123abcd"; params });
  check_msg_roundtrip "hello with topology"
    (Wire.Hello
       {
         version = Wire.version;
         config_hash = "ffff";
         params = { params with Wire.topology = Some "parking-lot" };
       });
  check_msg_roundtrip "welcome" (Wire.Welcome { config_hash = "0123abcd"; pid = 4242 });
  check_msg_roundtrip "reject"
    (Wire.Reject { reason = "config fingerprint mismatch: a, b" });
  check_msg_roundtrip "tree" (Wire.Tree { gen = 7; tree = interesting_tree () });
  check_msg_roundtrip "baseline task"
    (Wire.Task { index = 3; task = Wire.Baseline { spec = specimen () } });
  check_msg_roundtrip "candidate task"
    (Wire.Task
       {
         index = 12;
         task =
           Wire.Candidate
             {
               rule = 5;
               action = { Action.multiple = 1.7; increment = -2.; intersend_ms = 0.33 };
               spec = specimen ~seed:9 ~n:1 ();
             };
       });
  check_msg_roundtrip "baseline result"
    (Wire.Result
       {
         index = 3;
         outcome =
           Wire.Baseline_result
             {
               scores = [ -1.25; 0.1; Float.pi ];
               slots = [ (0, 17, [ mem 1. 2. 3. ]); (4, 2, []) ];
             };
       });
  check_msg_roundtrip "candidate result"
    (Wire.Result
       { index = 9; outcome = Wire.Candidate_result { scores = [ 0.1 +. 0.2 ] } });
  check_msg_roundtrip "ping" (Wire.Ping { seq = 81 });
  check_msg_roundtrip "pong" (Wire.Pong { seq = 81 });
  check_msg_roundtrip "shutdown" Wire.Shutdown

let test_float_exactness () =
  (* The bits that make or break distributed determinism: scores must
     cross the wire without rounding. *)
  let awkward =
    [ 0.1; 1. /. 3.; Float.pi; 1e-300; max_float; min_float; -0.; 4.9e-324 ]
  in
  let msg = Wire.Result { index = 0; outcome = Wire.Candidate_result { scores = awkward } } in
  match Wire.of_sexp (Wire.to_sexp msg) with
  | Ok (Wire.Result { outcome = Wire.Candidate_result { scores }; _ }) ->
    List.iter2
      (fun a b ->
        Alcotest.(check int64)
          (Printf.sprintf "bits of %h" a)
          (Int64.bits_of_float a) (Int64.bits_of_float b))
      awkward scores
  | Ok _ -> Alcotest.fail "decoded to a different message"
  | Error e -> Alcotest.failf "decode failed: %s" e

let prop_specimen_roundtrip =
  let gen =
    QCheck.Gen.(
      map
        (fun ((n, link, rtt), (seed, off_mean, on_s)) ->
          {
            Net_model.n;
            spec_link_mbps = link;
            rtt_s = rtt;
            workload =
              {
                Remy_sim.Workload.off_time = Remy_util.Dist.Exponential off_mean;
                on_spec = Remy_sim.Workload.By_time (Remy_util.Dist.Constant on_s);
              };
            spec_seed = seed;
          })
        (pair
           (triple (int_range 1 32) (float_bound_exclusive 1000.)
              (float_bound_exclusive 2.))
           (triple (int_range 0 1000000) (float_bound_exclusive 10.)
              (float_bound_exclusive 10.))))
  in
  QCheck.Test.make ~name:"specimen roundtrip preserves rendering" ~count:200
    (QCheck.make gen) (fun spec ->
      match Wire.specimen_of_sexp (Wire.specimen_to_sexp spec) with
      | Error _ -> false
      | Ok spec' ->
        Sexp.to_string (Wire.specimen_to_sexp spec)
        = Sexp.to_string (Wire.specimen_to_sexp spec'))

(* --- worker handshake and protocol discipline ------------------------- *)

(* Drive [Worker.serve] in-process: pre-load the coordinator side of a
   socketpair with input (tiny frames, well under the socket buffer),
   close it for writing, then observe what the worker raises and what it
   wrote back. *)
let with_worker ?expect_config feed check =
  let coord, work = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close coord with Unix.Unix_error _ -> ());
      try Unix.close work with Unix.Unix_error _ -> ())
    (fun () ->
      feed coord;
      Unix.shutdown coord Unix.SHUTDOWN_SEND;
      let outcome =
        match Worker.serve ?expect_config work with
        | () -> Ok ()
        | exception Worker.Protocol_error msg -> Error msg
      in
      check coord outcome)

let read_msg fd =
  match Frame.read fd with
  | Ok s -> (
    match Wire.of_sexp s with
    | Ok m -> m
    | Error e -> Alcotest.failf "worker sent unparseable message: %s" e)
  | Error Frame.Eof -> Alcotest.fail "worker closed without replying"
  | Error (Frame.Corrupt d) -> Alcotest.failf "worker sent corrupt frame: %s" d

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let test_worker_version_skew () =
  with_worker
    (fun coord ->
      Frame.write coord
        (Wire.to_sexp
           (Wire.Hello
              { version = Wire.version + 1; config_hash = "cafe"; params })))
    (fun coord outcome ->
      (match outcome with
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "raised: %s" msg)
          true
          (contains msg "version mismatch")
      | Ok () -> Alcotest.fail "worker accepted a wrong protocol version");
      match read_msg coord with
      | Wire.Reject { reason } ->
        Alcotest.(check bool) "reject names both versions" true
          (contains reason (string_of_int Wire.version)
          && contains reason (string_of_int (Wire.version + 1)))
      | _ -> Alcotest.fail "expected Reject")

let test_worker_config_skew () =
  with_worker ~expect_config:"feedface"
    (fun coord ->
      Frame.write coord
        (Wire.to_sexp
           (Wire.Hello { version = Wire.version; config_hash = "deadbeef"; params })))
    (fun coord outcome ->
      (match outcome with
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "raised: %s" msg)
          true
          (contains msg "config fingerprint mismatch")
      | Ok () -> Alcotest.fail "worker accepted a mismatched config");
      match read_msg coord with
      | Wire.Reject { reason } ->
        Alcotest.(check bool) "reject names both fingerprints" true
          (contains reason "deadbeef" && contains reason "feedface")
      | _ -> Alcotest.fail "expected Reject")

let test_worker_corrupt_frame () =
  with_worker
    (fun coord -> ignore (Unix.write_substring coord "XXXXXXXXXX" 0 10))
    (fun _ outcome ->
      match outcome with
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "raised: %s" msg)
          true
          (contains msg "corrupt frame" && contains msg "byte 0")
      | Ok () -> Alcotest.fail "worker swallowed a corrupt frame")

let test_worker_task_discipline () =
  (* A task before hello/tree sync is a protocol violation, not a
     silently-wrong evaluation. *)
  with_worker
    (fun coord ->
      Frame.write coord
        (Wire.to_sexp
           (Wire.Task { index = 0; task = Wire.Baseline { spec = specimen () } })))
    (fun _ outcome ->
      match outcome with
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "raised: %s" msg)
          true (contains msg "task before hello")
      | Ok () -> Alcotest.fail "worker evaluated before handshake")

(* --- coordinator ------------------------------------------------------ *)

let test_specs_of_string () =
  (match Coordinator.specs_of_string "3" with
  | Ok specs ->
    let local = Coordinator.Spawn [ Sys.executable_name; Worker.child_arg ] in
    Alcotest.(check bool) "bare 3 means three re-execs of this binary" true
      (specs = [ local; local; local ])
  | Error e -> Alcotest.failf "bare 3 rejected: %s" e);
  (match Coordinator.specs_of_string "127.0.0.1:9101,host:9102" with
  | Ok [ Coordinator.Connect "127.0.0.1:9101"; Coordinator.Connect "host:9102" ] ->
    ()
  | Ok _ -> Alcotest.fail "endpoint list parsed wrong"
  | Error e -> Alcotest.failf "endpoint list rejected: %s" e);
  (match Coordinator.specs_of_string "0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "0 workers should be rejected");
  match Coordinator.specs_of_string "host:notaport" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad port should be rejected"

let model = Net_model.onex ~sim_duration:1.0 ()

let dist_params =
  {
    Wire.objective = Objective.proportional ~delta:1.0;
    queue_capacity = model.Net_model.queue_capacity;
    duration = model.Net_model.sim_duration;
    topology = model.Net_model.topology;
  }

let test_chaos_kill_reissues () =
  (* Two worker processes, one SIGKILLed right after its second task
     dispatch: the grid must still reduce to exactly the single-process
     answer, with the loss and reissue surfaced as events. *)
  let tree = interesting_tree () in
  let specs = Net_model.draw_many model (Remy_util.Prng.create 11) 8 in
  let events = ref [] in
  let coord =
    Coordinator.create
      ~on_event:(fun e -> events := e :: !events)
      ~chaos_kill_after:2 ~params:dist_params ~config_hash:"test-chaos"
      ~workers:(local_workers 2) ()
  in
  Fun.protect
    ~finally:(fun () -> Coordinator.shutdown coord)
    (fun () ->
      Alcotest.(check int) "both workers joined" 2 (Coordinator.live_workers coord);
      let backend = Coordinator.backend coord ~incremental:true in
      let dist_tally =
        Tally.create ~capacity:(Rule_tree.capacity tree) ~seed:1 ()
      in
      let result, cache = backend.Optimizer.eval_baseline ~tally:dist_tally tree specs in
      let reference =
        Evaluator.score ~domains:1 ~objective:dist_params.Wire.objective
          ~queue_capacity:dist_params.Wire.queue_capacity
          ~duration:dist_params.Wire.duration tree specs
      in
      Alcotest.(check (float 0.)) "mean bit-identical to single-process"
        reference.Evaluator.mean_score result.Evaluator.mean_score;
      Alcotest.(check (list (float 0.))) "sender scores bit-identical"
        reference.Evaluator.sender_scores result.Evaluator.sender_scores;
      Alcotest.(check int) "cache per specimen" (List.length specs)
        (Array.length cache);
      let lost =
        List.exists (function Coordinator.Worker_lost _ -> true | _ -> false)
          !events
      and reissued =
        List.exists (function Coordinator.Task_reissued _ -> true | _ -> false)
          !events
      in
      Alcotest.(check bool) "worker loss surfaced" true lost;
      Alcotest.(check bool) "task reissue surfaced" true reissued;
      Alcotest.(check int) "one worker survives" 1
        (Coordinator.live_workers coord);
      (* The tally merged from worker exports must match the in-process
         merge — counts and samples both, since medians split on them. *)
      let ref_tally = Tally.create ~capacity:(Rule_tree.capacity tree) ~seed:1 () in
      ignore
        (Evaluator.score ~tally:ref_tally ~domains:1
           ~objective:dist_params.Wire.objective
           ~queue_capacity:dist_params.Wire.queue_capacity
           ~duration:dist_params.Wire.duration tree specs);
      List.iter
        (fun id ->
          Alcotest.(check int)
            (Printf.sprintf "rule %d count" id)
            (Tally.count ref_tally id) (Tally.count dist_tally id);
          Alcotest.(check bool)
            (Printf.sprintf "rule %d samples" id)
            true
            (Tally.samples ref_tally id = Tally.samples dist_tally id))
        (Rule_tree.live_ids tree))

let test_workers_survive_terminal_signals () =
  (* A terminal ^C reaches the whole process group.  Local workers must
     outlive it, since the coordinator needs them to finish its round
     and checkpoint; they leave only on Shutdown or EOF. *)
  let tree = interesting_tree () in
  let specs = Net_model.draw_many model (Remy_util.Prng.create 17) 4 in
  let events = ref [] in
  let coord =
    Coordinator.create
      ~on_event:(fun e -> events := e :: !events)
      ~params:dist_params ~config_hash:"test-signals" ~workers:(local_workers 2) ()
  in
  Fun.protect
    ~finally:(fun () -> Coordinator.shutdown coord)
    (fun () ->
      let pids =
        List.filter_map
          (function Coordinator.Worker_joined { pid; _ } -> Some pid | _ -> None)
          !events
      in
      Alcotest.(check int) "both workers joined" 2 (List.length pids);
      List.iter2 Unix.kill pids [ Sys.sigint; Sys.sigterm ];
      let backend = Coordinator.backend coord ~incremental:true in
      let result, _ = backend.Optimizer.eval_baseline tree specs in
      let reference =
        Evaluator.score ~domains:1 ~objective:dist_params.Wire.objective
          ~queue_capacity:dist_params.Wire.queue_capacity
          ~duration:dist_params.Wire.duration tree specs
      in
      Alcotest.(check bool) "no worker lost" false
        (List.exists (function Coordinator.Worker_lost _ -> true | _ -> false) !events);
      Alcotest.(check (float 0.)) "mean bit-identical to single-process"
        reference.Evaluator.mean_score result.Evaluator.mean_score;
      Alcotest.(check (list (float 0.))) "sender scores bit-identical"
        reference.Evaluator.sender_scores result.Evaluator.sender_scores)

let test_candidates_match_inprocess () =
  (* A baseline and a candidate round sharded over worker processes
     reduce to the pool executor's exact floats, cache hits and tallies
     included: on the dumbbell, and on a named topology, whose name
     reaches the workers only through [Hello]'s params. *)
  let tree = interesting_tree () in
  let specs = Net_model.draw_many model (Remy_util.Prng.create 13) 4 in
  let candidates =
    [|
      { Action.multiple = 0.5; increment = 1.; intersend_ms = 1. };
      { Action.multiple = 1.0; increment = -1.; intersend_ms = 0.5 };
    |]
  in
  let rule = List.hd (Rule_tree.live_ids tree) in
  let round (backend : Optimizer.eval_backend) =
    let tally = Tally.create ~capacity:(Rule_tree.capacity tree) ~seed:1 () in
    let result, cache = backend.Optimizer.eval_baseline ~tally tree specs in
    (result, cache, tally, backend.Optimizer.eval_candidates tree ~rule candidates cache)
  in
  let means =
    List.map
      (fun (params : Wire.eval_params) ->
        let label what =
          Option.value params.Wire.topology ~default:"dumbbell" ^ ": " ^ what
        in
        let coord =
          Coordinator.create ~params ~config_hash:"test-cand" ~workers:(local_workers 2) ()
        in
        let d_result, d_cache, d_tally, (d_scores, (d_sims, d_skips)) =
          Fun.protect
            ~finally:(fun () -> Coordinator.shutdown coord)
            (fun () -> round (Coordinator.backend coord ~incremental:true))
        in
        let p_result, p_cache, p_tally, (p_scores, (p_sims, p_skips)) =
          Par.Pool.with_pool ~domains:1 (fun pool ->
              round (Evaluator.on_pool pool params ~incremental:true))
        in
        Alcotest.(check (list (float 0.))) (label "baseline sender scores bit-identical")
          p_result.Evaluator.sender_scores d_result.Evaluator.sender_scores;
        Alcotest.(check (float 0.)) (label "baseline mean bit-identical")
          p_result.Evaluator.mean_score d_result.Evaluator.mean_score;
        Array.iter2
          (fun (p : Evaluator.spec_cache) (d : Evaluator.spec_cache) ->
            Alcotest.(check (array bool)) (label "touched rules") p.Evaluator.touched
              d.Evaluator.touched)
          p_cache d_cache;
        List.iter
          (fun id ->
            Alcotest.(check int) (label (Printf.sprintf "rule %d count" id))
              (Tally.count p_tally id) (Tally.count d_tally id);
            Alcotest.(check bool) (label (Printf.sprintf "rule %d samples" id)) true
              (Tally.samples p_tally id = Tally.samples d_tally id))
          (Rule_tree.live_ids tree);
        Alcotest.(check (array (float 0.))) (label "candidate scores bit-identical")
          p_scores d_scores;
        Alcotest.(check int) (label "same simulations") p_sims d_sims;
        Alcotest.(check int) (label "same skips") p_skips d_skips;
        p_result.Evaluator.mean_score)
      [ dist_params; { dist_params with Wire.topology = Some "parking-lot" } ]
  in
  Alcotest.(check bool) "the topology changes the score" true
    (List.nth means 0 <> List.nth means 1)

let test_mismatched_result_kind () =
  (* Outcomes arrive from outside the process, so the coordinator checks
     each one's kind against its task.  A lying worker answers every
     task with a candidate result; a baseline grid must fail naming it. *)
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "no port"
  in
  let liar =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept listener in
        let reply m = Frame.write fd (Wire.to_sexp m) in
        let rec serve () =
          match Result.map Wire.of_sexp (Frame.read fd) with
          | Ok (Ok (Wire.Hello { config_hash; _ })) ->
            reply (Wire.Welcome { config_hash; pid = 0 });
            serve ()
          | Ok (Ok (Wire.Task { index; _ })) ->
            reply (Wire.Result { index; outcome = Wire.Candidate_result { scores = [] } });
            serve ()
          | Ok (Ok (Wire.Tree _ | Wire.Ping _)) -> serve ()
          | _ -> ()
        in
        (try serve () with Unix.Unix_error _ -> ());
        Unix.close fd)
  in
  let coord =
    Coordinator.create ~params:dist_params ~config_hash:"test-liar"
      ~workers:[ Coordinator.Connect (Printf.sprintf "127.0.0.1:%d" port) ]
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.shutdown coord;
      Domain.join liar;
      Unix.close listener)
    (fun () ->
      let specs = Net_model.draw_many model (Remy_util.Prng.create 3) 2 in
      match
        (Coordinator.backend coord ~incremental:true).Optimizer.eval_baseline
          (interesting_tree ()) specs
      with
      | exception Coordinator.Dist_error msg ->
        Alcotest.(check bool) ("names the worker: " ^ msg) true
          (contains msg "worker 0" && contains msg "does not match")
      | _ -> Alcotest.fail "a candidate result for a baseline task was accepted")

(* --- tally export ----------------------------------------------------- *)

let test_tally_export_equivalence () =
  let capacity = 8 in
  let rng = Remy_util.Prng.create 99 in
  let src = Tally.create ~reservoir:4 ~capacity ~seed:5 () in
  for _ = 1 to 200 do
    Tally.record src
      (Remy_util.Prng.int rng capacity)
      (mem (Remy_util.Prng.float rng 200.) (Remy_util.Prng.float rng 200.)
         (Remy_util.Prng.float rng 4.))
  done;
  (* export lists only fired slots, ids ascending *)
  let exported = Tally.export src in
  List.iter (fun (_, count, _) -> Alcotest.(check bool) "fired" true (count > 0)) exported;
  Alcotest.(check bool) "ids ascending" true
    (List.sort compare (List.map (fun (id, _, _) -> id) exported)
    = List.map (fun (id, _, _) -> id) exported);
  (* merge_exported (export src) must equal merge_into src, bit for bit,
     including reservoir decisions — that is what makes a worker's
     shipped tally indistinguishable from a local one. *)
  let base () =
    let t = Tally.create ~reservoir:4 ~capacity ~seed:7 () in
    for i = 0 to capacity - 1 do
      Tally.record t i (mem 1. 1. 1.)
    done;
    t
  in
  let via_into = base () and via_export = base () in
  Tally.merge_into via_into src;
  Tally.merge_exported via_export exported;
  for id = 0 to capacity - 1 do
    Alcotest.(check int)
      (Printf.sprintf "slot %d count" id)
      (Tally.count via_into id) (Tally.count via_export id);
    Alcotest.(check bool)
      (Printf.sprintf "slot %d samples" id)
      true
      (Tally.samples via_into id = Tally.samples via_export id)
  done

let tests =
  [
    QCheck_alcotest.to_alcotest prop_frame_roundtrip;
    QCheck_alcotest.to_alcotest prop_frame_roundtrip_fd;
    Alcotest.test_case "framing violations named with positions" `Quick
      test_frame_rejections;
    Alcotest.test_case "clean close is Eof" `Quick test_frame_read_eof;
    Alcotest.test_case "torn stream is Corrupt" `Quick test_frame_read_torn;
    Alcotest.test_case "message roundtrips" `Quick test_msg_roundtrips;
    Alcotest.test_case "float scores cross the wire bit-exactly" `Quick
      test_float_exactness;
    QCheck_alcotest.to_alcotest prop_specimen_roundtrip;
    Alcotest.test_case "worker rejects version skew" `Quick
      test_worker_version_skew;
    Alcotest.test_case "worker rejects config skew" `Quick
      test_worker_config_skew;
    Alcotest.test_case "worker aborts on corrupt frame" `Quick
      test_worker_corrupt_frame;
    Alcotest.test_case "worker refuses tasks before handshake" `Quick
      test_worker_task_discipline;
    Alcotest.test_case "--workers spec parsing" `Quick test_specs_of_string;
    Alcotest.test_case "chaos kill reissues, result bit-identical" `Slow
      test_chaos_kill_reissues;
    Alcotest.test_case "workers survive SIGINT and SIGTERM" `Slow
      test_workers_survive_terminal_signals;
    Alcotest.test_case "sharded candidates match the pool path" `Slow
      test_candidates_match_inprocess;
    Alcotest.test_case "mismatched result kind is a named error" `Quick
      test_mismatched_result_kind;
    Alcotest.test_case "tally export/merge equivalence" `Quick
      test_tally_export_equivalence;
  ]
