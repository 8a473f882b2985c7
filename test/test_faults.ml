(* Fault-injection layer: spec parsing, Gilbert–Elliott statistics,
   injector determinism, graceful
   sender degradation under outages, zero-cost-when-off, and the chaos
   harness's directive machinery. *)

open Remy_sim
open Remy_cc
open Remy_faults

(* ---------- Spec parsing ---------- *)

let parse_ok s =
  match Spec.parse s with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let test_parse_roundtrip () =
  List.iter
    (fun s ->
      let t = parse_ok s in
      let s' = Spec.to_string t in
      let t' = parse_ok s' in
      Alcotest.(check string)
        (Printf.sprintf "canonical fixpoint of %S" s)
        s' (Spec.to_string t'))
    [
      "outage:10+2+30";
      "outage:5+1,drop";
      "ge:0.01,0.25,0.5";
      "ge:0.01,0.25,0.5,0.001";
      "reorder:0.05,0.005";
      "dup:0.01";
      "corrupt:0.002";
      "rate:5@30";
      "ratex:0.5@30";
      "delay:0.02@30";
      "outage:10+2+30;ge:0.01,0.25,0.5;link1/corrupt:0.01";
    ]

let test_parse_errors () =
  List.iter
    (fun s ->
      match Spec.parse s with
      | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
      | Error _ -> ())
    [
      "outage:10";            (* missing duration *)
      "outage:-1+2";          (* negative start *)
      "outage:0+0";           (* zero duration *)
      "outage:0+5+3";         (* period shorter than downtime *)
      "ge:1.5,0.2,0.5";       (* probability out of range *)
      "ge:0.01,0.2";          (* missing loss *)
      "reorder:0.05,0";       (* zero hold *)
      "dup:2";
      "rate:0@10";
      "nonsense:1";
      "link-1/dup:0.1";
    ]

let test_presets_resolve () =
  List.iter
    (fun (name, _) ->
      match Spec.of_arg name with
      | Ok t -> Alcotest.(check bool) (name ^ " non-empty") false (Spec.is_empty t)
      | Error e -> Alcotest.failf "preset %s: %s" name e)
    Spec.presets

let test_for_link_scoping () =
  let t = parse_ok "dup:0.1;link2/dup:0.5;link1/outage:1+1" in
  let l0 = Spec.for_link t 0 in
  let l1 = Spec.for_link t 1 in
  let l2 = Spec.for_link t 2 in
  Alcotest.(check (float 0.)) "link0 global dup" 0.1 l0.Spec.dup_prob;
  Alcotest.(check (float 0.)) "link2 override dup" 0.5 l2.Spec.dup_prob;
  Alcotest.(check int) "link1 outage present" 1 (List.length l1.Spec.outages);
  Alcotest.(check int) "link0 no outage" 0 (List.length l0.Spec.outages)

(* ---------- Gilbert–Elliott ---------- *)

let empirical_loss params ~seed ~n =
  let ge = Gilbert.create ~seed params in
  let drops = ref 0 in
  for _ = 1 to n do
    if Gilbert.step_drop ge then incr drops
  done;
  float_of_int !drops /. float_of_int n

let test_ge_stationary_fixed () =
  let params =
    { Gilbert.p_gb = 0.1; p_bg = 0.3; loss_good = 0.01; loss_bad = 0.5 }
  in
  let expected = Gilbert.stationary_loss params in
  let got = empirical_loss params ~seed:11 ~n:200_000 in
  if Float.abs (got -. expected) > 0.01 then
    Alcotest.failf "empirical %.4f vs stationary %.4f" got expected

let test_ge_degenerate () =
  (* loss_bad = 1, p_bg = 0 from a certain entry into bad: everything
     drops once the chain falls in. *)
  let params = { Gilbert.p_gb = 1.0; p_bg = 0.; loss_good = 0.; loss_bad = 1.0 } in
  let ge = Gilbert.create ~seed:3 params in
  let all = ref true in
  for _ = 1 to 100 do
    if not (Gilbert.step_drop ge) then all := false
  done;
  Alcotest.(check bool) "absorbing bad state drops all" true !all

let test_ge_determinism () =
  let params =
    { Gilbert.p_gb = 0.05; p_bg = 0.2; loss_good = 0.001; loss_bad = 0.4 }
  in
  let draw seed =
    let ge = Gilbert.create ~seed params in
    List.init 500 (fun _ -> Gilbert.step_drop ge)
  in
  Alcotest.(check bool) "same seed same drops" true (draw 7 = draw 7);
  Alcotest.(check bool) "different seed differs" true (draw 7 <> draw 8)

let ge_stationary_prop =
  (* Fast-mixing chains only (transition probs bounded away from 0), so
     200k steps average over many good/bad episodes. *)
  QCheck.Test.make ~count:20 ~name:"GE empirical loss converges to stationary"
    QCheck.(
      quad (float_range 0.05 0.5) (float_range 0.05 0.5) (float_range 0. 0.2)
        (float_range 0.2 1.0))
    (fun (p_gb, p_bg, loss_good, loss_bad) ->
      let params = { Gilbert.p_gb; p_bg; loss_good; loss_bad } in
      let expected = Gilbert.stationary_loss params in
      let got = empirical_loss params ~seed:99 ~n:200_000 in
      Float.abs (got -. expected) < 0.02)

(* ---------- Injector unit behavior ---------- *)

let table = Packet.create ()
let mk_pkt seq = Packet.acquire table ~flow:0 ~seq ~conn:0 ~flags:0 ~now:0.

let test_maybe_empty_is_inner () =
  let engine = Engine.create () in
  let inner = Droptail.create ~table ~capacity:10 () in
  let gate, inj = Injector.maybe engine ~table ~seed:1 Spec.empty_link ~inner in
  Alcotest.(check bool) "inner returned untouched" true (gate == inner);
  Alcotest.(check bool) "no injector" true (inj = None)

let test_duplication_and_corruption () =
  let engine = Engine.create () in
  let inner = Droptail.create ~table ~capacity:10_000 () in
  let spec = Spec.for_link (parse_ok "dup:0.5;corrupt:1") 0 in
  let gate, inj = Injector.create engine ~table ~seed:5 spec ~inner in
  for i = 0 to 999 do
    ignore (gate.Qdisc.enqueue ~now:0. (mk_pkt i))
  done;
  let stats = Injector.stats inj in
  let dups = stats.Injector.duplicated in
  Alcotest.(check int) "queue holds originals + duplicates"
    (1000 + dups)
    (inner.Qdisc.length ());
  if dups < 400 || dups > 600 then Alcotest.failf "dup rate off: %d/1000" dups;
  Alcotest.(check int) "all originals marked corrupt" 1000
    stats.Injector.corrupted

let test_reorder_holds_packets () =
  let engine = Engine.create () in
  let inner = Droptail.create ~table ~capacity:10_000 () in
  let spec = Spec.for_link (parse_ok "reorder:1,0.01") 0 in
  let gate, inj = Injector.create engine ~table ~seed:6 spec ~inner in
  for i = 0 to 9 do
    Alcotest.(check bool) "gate accepts held packet" true
      (gate.Qdisc.enqueue ~now:0. (mk_pkt i))
  done;
  Alcotest.(check int) "nothing reaches inner before the hold" 0
    (inner.Qdisc.length ());
  Engine.run engine ~until:0.1;
  Alcotest.(check int) "all arrive after the hold" 10 (inner.Qdisc.length ());
  Alcotest.(check int) "reorder draws counted" 10
    (Injector.stats inj).Injector.reordered

let test_duplicate_of_dropped_packet () =
  (* With the queue full the original is tail-dropped, so released,
     before the injector copies it; the copy must still carry every
     column of the original, though it reuses the original's handle. *)
  let engine = Engine.create () in
  let table = Packet.create () in
  let sink, read = Remy_obs.Sink.memory () in
  let inner = Droptail.create ~tracer:(Remy_obs.Trace.make sink) ~table ~capacity:1 () in
  let spec = Spec.for_link (parse_ok "dup:1") 0 in
  let gate, _ = Injector.create engine ~table ~seed:7 spec ~inner in
  let pkt seq = Packet.acquire table ~flow:3 ~seq ~conn:0 ~flags:0 ~now:0. in
  ignore (gate.Qdisc.enqueue ~now:0. (pkt 0));
  let p = pkt 1 in
  table.Packet.size.{p} <- 99;
  Alcotest.(check bool) "original dropped" false (gate.Qdisc.enqueue ~now:0. p);
  let module R = Remy_obs.Record in
  let drops =
    List.filter_map
      (fun r ->
        match (R.find "ev" r, R.find "seq" r, R.find "size" r) with
        | Some (R.Str "drop"), Some (R.Int 1), Some (R.Int size) -> Some size
        | _ -> None)
      (read ())
  in
  Alcotest.(check (list int)) "original and copy dropped, both 99 bytes" [ 99; 99 ] drops;
  Alcotest.(check int) "only the first original is live" 1
    (table.Packet.acquired - table.Packet.released)

(* ---------- End-to-end dumbbell runs ---------- *)

let fixed_transfer n =
  {
    Workload.off_time = Remy_util.Dist.Constant infinity;
    on_spec =
      Workload.By_bytes (Remy_util.Dist.Constant (float_of_int (n * Packet.default_size)));
  }

let dumbbell_config ?(duration = 30.) ?(seed = 9) ?(n = 2) () =
  {
    Dumbbell.service = Dumbbell.Rate_mbps 10.;
    qdisc = Dumbbell.Droptail 1000;
    flows =
      Array.init n (fun _ ->
          {
            Dumbbell.cc = Newreno.factory ();
            rtt = 0.1;
            workload = fixed_transfer 200;
            start = `Immediate;
          });
    duration;
    seed;
    min_rto = Dumbbell.default_min_rto;
  }

let summaries r =
  Array.to_list
    (Array.map
       (fun (f : Metrics.flow_summary) ->
         (f.Metrics.packets, f.Metrics.bytes, f.Metrics.throughput_mbps,
          f.Metrics.mean_queueing_delay_ms))
       r.Topology.flows)

let test_no_fault_bit_identity () =
  let a = Sims.dumbbell (dumbbell_config ()) in
  let b = Sims.dumbbell ~faults:Spec.empty (dumbbell_config ()) in
  Alcotest.(check bool) "empty spec is invisible" true (summaries a = summaries b)

let test_outage_park_delivers_everything () =
  let faults = parse_ok "outage:1+2" in
  let r = Sims.dumbbell ~faults (dumbbell_config ()) in
  Array.iter
    (fun (f : Metrics.flow_summary) ->
      Alcotest.(check int) "all segments delivered across the outage" 200
        f.Metrics.packets)
    r.Topology.flows

let test_outage_drop_recovers () =
  (* Arrivals during the blackout are discarded: the senders must take
     RTOs and still finish the transfer afterwards. *)
  let faults = parse_ok "outage:1+2,drop" in
  let r = Sims.dumbbell ~faults (dumbbell_config ()) in
  Array.iter
    (fun (f : Metrics.flow_summary) ->
      Alcotest.(check int) "transfer completes after drop outage" 200
        f.Metrics.packets)
    r.Topology.flows

let test_faulted_run_deterministic () =
  let faults = parse_ok "outage:1+0.5+5;ge:0.02,0.2,0.4;reorder:0.05,0.005;dup:0.01;corrupt:0.005" in
  let a = Sims.dumbbell ~faults (dumbbell_config ()) in
  let b = Sims.dumbbell ~faults (dumbbell_config ()) in
  Alcotest.(check bool) "identical runs identical summaries" true
    (summaries a = summaries b)

let test_ge_drops_affect_throughput () =
  let clean = Sims.dumbbell (dumbbell_config ~duration:10. ()) in
  let lossy = Sims.dumbbell ~faults:(parse_ok "ge:0.05,0.1,0.8") (dumbbell_config ~duration:10. ()) in
  let tput r =
    Array.fold_left (fun acc (f : Metrics.flow_summary) -> acc +. f.Metrics.throughput_mbps)
      0. r.Topology.flows
  in
  Alcotest.(check bool) "bursty loss hurts throughput" true (tput lossy < tput clean)

(* ---------- Graceful degradation: idle restart ---------- *)

let remy_dumbbell_config ~factory ?(duration = 20.) ?(seed = 21) () =
  {
    Dumbbell.service = Dumbbell.Rate_mbps 10.;
    qdisc = Dumbbell.Droptail 1000;
    flows =
      Array.init 2 (fun _ ->
          {
            Dumbbell.cc = factory;
            rtt = 0.1;
            workload = fixed_transfer 150;
            start = `Immediate;
          });
    duration;
    seed;
    min_rto = Dumbbell.default_min_rto;
  }

let test_idle_restart_off_is_identity () =
  let tree = Remy.Rule_tree.create () in
  let a = Sims.dumbbell (remy_dumbbell_config ~factory:(Remy.Remycc.factory tree) ()) in
  let b =
    Sims.dumbbell
      (remy_dumbbell_config
         ~factory:(Remy.Remycc.factory ~idle_restart_s:infinity tree)
         ())
  in
  Alcotest.(check bool) "infinite threshold never fires" true
    (summaries a = summaries b)

let test_idle_restart_deterministic_under_outage () =
  let tree = Remy.Rule_tree.create () in
  let run () =
    Sims.dumbbell
      ~faults:(parse_ok "outage:1+2")
      (remy_dumbbell_config ~factory:(Remy.Remycc.factory ~idle_restart_s:0.5 tree) ())
  in
  Alcotest.(check bool) "idle restart stays deterministic" true
    (summaries (run ()) = summaries (run ()))

let test_fleet_matches_records_under_faults () =
  (* The SoA fleet mirrors the per-record sender; the fault layer and
     idle-restart must not break the bit-identical equivalence. *)
  let tree = Remy.Rule_tree.create () in
  let faults = parse_ok "outage:0.5+1+4;ge:0.02,0.2,0.3" in
  let config idle =
    Topology.incast ~n:8
      ~cc:(Remy.Remycc.factory ?idle_restart_s:idle tree)
      ~duration:5. ~seed:13 ()
  in
  let flows r =
    Array.to_list
      (Array.map
         (fun (f : Metrics.flow_summary) ->
           (f.Metrics.packets, f.Metrics.bytes, f.Metrics.throughput_mbps))
         r.Topology.flows)
  in
  List.iter
    (fun idle ->
      let records = Topology.run ~faults (config idle) in
      let fleet =
        Topology.run ~faults
          ~sender_factory:(Remy.Fleet.factory ?idle_restart_s:idle tree)
          (config idle)
      in
      Alcotest.(check bool)
        (Printf.sprintf "fleet = records (idle_restart=%s)"
           (match idle with None -> "off" | Some s -> string_of_float s))
        true
        (flows records = flows fleet))
    [ None; Some 0.3 ]

(* ---------- RTO under long outages (regression: unbounded doubling) ---------- *)

let test_rto_bounded_under_blackout () =
  (* A sender facing a dead link for minutes: backoff must saturate at
     the named clamp instead of doubling without bound, and the first
     ACK after recovery must reset it. *)
  let faults = parse_ok "outage:1+60,drop" in
  let config =
    {
      Dumbbell.service = Dumbbell.Rate_mbps 10.;
      qdisc = Dumbbell.Droptail 1000;
      flows =
        [|
          {
            Dumbbell.cc = Newreno.factory ();
            rtt = 0.1;
            workload = fixed_transfer 100;
            start = `Immediate;
          };
        |];
      duration = 120.;
      seed = 31;
      min_rto = Dumbbell.default_min_rto;
    }
  in
  let r = Sims.dumbbell ~faults config in
  Alcotest.(check int) "transfer completes after a 60 s blackout" 100
    r.Topology.flows.(0).Metrics.packets

(* ---------- Chaos harness ---------- *)

let test_chaos_parse () =
  (match Chaos.parse "fail=pool-task:2,stall=round-end:1:0.5,corrupt=checkpoint-saved:1" with
  | Ok ds -> Alcotest.(check int) "three directives" 3 (List.length ds)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun s ->
      match Chaos.parse s with
      | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
      | Error _ -> ())
    [ "explode=pool-task:1"; "fail=pool-task"; "fail=pool-task:0"; "stall=x:1" ]

let test_chaos_fail_fires_once () =
  Chaos.configure [ Chaos.directive ~point:"pool-task" ~nth:2 Chaos.Fail ];
  Fun.protect ~finally:Chaos.reset (fun () ->
      Alcotest.(check bool) "armed" true (Chaos.active ());
      Chaos.hit "pool-task";
      (match Chaos.hit "pool-task" with
      | () -> Alcotest.fail "second hit should raise"
      | exception Chaos.Injected p ->
        Alcotest.(check string) "carries point name" "pool-task" p);
      (* Fires exactly once: the third hit passes. *)
      Chaos.hit "pool-task";
      (* Unrelated points never fire. *)
      Chaos.hit "round-end")

let test_chaos_corrupt_flips_byte () =
  let path = Filename.temp_file "remy-chaos" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      Chaos.reset ();
      Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.make 64 'x'));
      Chaos.configure
        [ Chaos.directive ~point:"checkpoint-saved" ~nth:1 Chaos.Corrupt_file ];
      Chaos.hit ~path "checkpoint-saved";
      let contents = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check int) "size unchanged" 64 (String.length contents);
      Alcotest.(check bool) "one byte flipped" true
        (contents <> String.make 64 'x'))

let test_chaos_corrupted_checkpoint_rejected () =
  (* The full loop the CI chaos job relies on: corrupt a just-saved
     checkpoint and the loader must refuse it with a diagnostic. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "remy-chaos-ckpt-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect ~finally:Chaos.reset (fun () ->
      let snapshot =
        {
          Remy.Checkpoint.config_hash = Remy.Checkpoint.hash_hex "chaos-test";
          position = Remy.Checkpoint.Epoch_start;
          epoch = 1;
          rounds = 1;
          improvements = 0;
          subdivisions = 0;
          evaluations = 5;
          spec_sims = 10;
          spec_skips = 0;
          last_score = -1.;
          elapsed_s = 1.;
          telemetry_epochs = 0;
          rng = Remy_util.Prng.state (Remy_util.Prng.create 1);
          tree = Remy.Rule_tree.create ();
        }
      in
      Remy.Checkpoint.save ~dir snapshot;
      (match Remy.Checkpoint.load ~dir with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "clean checkpoint rejected: %s" e);
      Chaos.configure
        [ Chaos.directive ~point:"checkpoint-saved" ~nth:1 Chaos.Corrupt_file ];
      Remy.Checkpoint.save ~dir snapshot;
      match Remy.Checkpoint.load ~dir with
      | Ok _ -> Alcotest.fail "corrupted checkpoint accepted"
      | Error _ -> ())

let test_chaos_pool_task_retried () =
  (* A fail directive inside a pool task must be absorbed by the retry
     machinery: the map still completes with correct results. *)
  Chaos.configure [ Chaos.directive ~point:"pool-task" ~nth:3 Chaos.Fail ];
  Fun.protect ~finally:Chaos.reset (fun () ->
      Remy.Par.Pool.with_pool ~retries:2 ~domains:2 (fun pool ->
          let xs = Array.init 16 (fun i -> i) in
          let ys = Remy.Par.Pool.map pool (fun x -> x * x) xs in
          Alcotest.(check (array int)) "map survives injected failure"
            (Array.map (fun x -> x * x) xs)
            ys))

let tests =
  [
    Alcotest.test_case "spec round-trip" `Quick test_parse_roundtrip;
    Alcotest.test_case "spec errors" `Quick test_parse_errors;
    Alcotest.test_case "presets resolve" `Quick test_presets_resolve;
    Alcotest.test_case "per-link scoping" `Quick test_for_link_scoping;
    Alcotest.test_case "GE stationary loss (fixed)" `Quick test_ge_stationary_fixed;
    Alcotest.test_case "GE absorbing bad state" `Quick test_ge_degenerate;
    Alcotest.test_case "GE deterministic" `Quick test_ge_determinism;
    QCheck_alcotest.to_alcotest ge_stationary_prop;
    Alcotest.test_case "empty spec returns inner" `Quick test_maybe_empty_is_inner;
    Alcotest.test_case "duplication and corruption" `Quick
      test_duplication_and_corruption;
    Alcotest.test_case "reorder holds packets" `Quick test_reorder_holds_packets;
    Alcotest.test_case "duplicate of a dropped packet" `Quick
      test_duplicate_of_dropped_packet;
    Alcotest.test_case "no-fault bit identity" `Slow test_no_fault_bit_identity;
    Alcotest.test_case "outage park delivers" `Slow
      test_outage_park_delivers_everything;
    Alcotest.test_case "outage drop recovers" `Slow test_outage_drop_recovers;
    Alcotest.test_case "faulted run deterministic" `Slow
      test_faulted_run_deterministic;
    Alcotest.test_case "GE loss hurts throughput" `Slow
      test_ge_drops_affect_throughput;
    Alcotest.test_case "idle restart off = identity" `Slow
      test_idle_restart_off_is_identity;
    Alcotest.test_case "idle restart deterministic" `Slow
      test_idle_restart_deterministic_under_outage;
    Alcotest.test_case "fleet = records under faults" `Slow
      test_fleet_matches_records_under_faults;
    Alcotest.test_case "RTO bounded across blackout" `Slow
      test_rto_bounded_under_blackout;
    Alcotest.test_case "chaos parse" `Quick test_chaos_parse;
    Alcotest.test_case "chaos fail fires once" `Quick test_chaos_fail_fires_once;
    Alcotest.test_case "chaos corrupt flips byte" `Quick
      test_chaos_corrupt_flips_byte;
    Alcotest.test_case "corrupted checkpoint rejected" `Quick
      test_chaos_corrupted_checkpoint_rejected;
    Alcotest.test_case "pool retries injected failure" `Quick
      test_chaos_pool_task_retried;
  ]
