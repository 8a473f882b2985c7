(* The tracing acceptance tests: sinks round-trip records exactly, a
   disabled tracer is a no-op, tracing never changes simulation results
   (bit-identical with the tracer off, on, or probing), event order
   follows the engine clock, and every queue discipline emits events. *)

open Remy_sim
open Remy_cc
module R = Remy_obs.Record
module Sink = Remy_obs.Sink
module Trace = Remy_obs.Trace

let value = Alcotest.testable (fun ppf v -> Fmt.string ppf (R.to_json [ ("v", v) ])) ( = )

let find_exn key r =
  match R.find key r with
  | Some v -> v
  | None -> Alcotest.failf "field %s missing in %s" key (R.to_json r)

let ev r = match find_exn "ev" r with R.Str s -> s | _ -> Alcotest.fail "ev not a string"
let t_of r = match R.to_float (find_exn "t" r) with Some t -> t | None -> Alcotest.fail "t"

(* --- codec round-trips --------------------------------------------- *)

let sample_record =
  [
    ("t", R.Float 1.5);
    ("ev", R.Str "enqueue");
    ("flow", R.Int 3);
    ("ok", R.Bool true);
    ("name", R.Str "with \"quotes\" and \\ and unicode \xc3\xa9");
  ]

let test_json_roundtrip () =
  match R.of_json (R.to_json sample_record) with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok r ->
    List.iter
      (fun (k, v) -> Alcotest.check value k v (find_exn k r))
      sample_record

let test_csv_roundtrip () =
  (* CSV is unquoted, so stick to the trace schema's clean fields. *)
  let record =
    [ ("t", R.Float 0.25); ("ev", R.Str "drop"); ("flow", R.Int 1); ("qlen", R.Int 7) ]
  in
  let columns = [ "t"; "ev"; "q"; "flow"; "qlen" ] in
  let line = R.to_csv ~columns record in
  let back = R.of_csv ~header:columns line in
  Alcotest.check value "t" (R.Float 0.25) (find_exn "t" back);
  Alcotest.check value "ev" (R.Str "drop") (find_exn "ev" back);
  Alcotest.check value "flow" (R.Int 1) (find_exn "flow" back);
  Alcotest.(check bool) "empty cell omitted" true (R.find "q" back = None)

(* JSON has no literal for a non-finite float: the writer quotes its
   [Float.to_string], and the reader must take those strings back as the
   float, sign bit included. *)
let test_nonfinite_roundtrip () =
  let cases =
    [ ("inf", Float.infinity); ("ninf", Float.neg_infinity); ("nan", Float.nan);
      ("nnan", Float.neg Float.nan) ]
  in
  List.iter
    (fun suffix ->
      let path = Filename.temp_file "nonfinite" suffix in
      let sink = Sink.to_file path in
      Sink.emit sink (List.map (fun (k, f) -> (k, R.Float f)) cases);
      Sink.close sink;
      let back =
        match Sink.read_file path with
        | Ok [ r ] -> r
        | Ok rs -> Alcotest.failf "expected one record, got %d" (List.length rs)
        | Error e -> Alcotest.failf "read_file: %s" e
      in
      Sys.remove path;
      List.iter
        (fun (k, f) ->
          let label = k ^ suffix in
          match R.to_float (find_exn k back) with
          | None -> Alcotest.failf "%s: not read back as a float" label
          | Some g ->
            Alcotest.(check bool) (label ^ " class") true
              (Float.classify_float g = Float.classify_float f);
            Alcotest.(check bool) (label ^ " sign") (Float.sign_bit f) (Float.sign_bit g))
        cases)
    [ ".jsonl"; ".csv" ]

let test_file_roundtrip format () =
  let suffix = match format with `Jsonl -> ".jsonl" | `Csv -> ".csv" in
  let path = Filename.temp_file "trace_test" suffix in
  let sink =
    match format with
    | `Jsonl -> Sink.to_file path
    | `Csv -> Sink.to_file ~columns:Trace.columns path
  in
  let tracer = Trace.make sink in
  Trace.packet_event tracer ~now:0.5 ~kind:Trace.Enqueue ~queue:"droptail"
    ~flow:0 ~seq:12 ~size:1500 ~qlen:3 ();
  Trace.queue_sample tracer ~now:1.0 ~queue:"droptail" ~qlen:2 ~qbytes:3000;
  Trace.close tracer;
  (match Sink.read_file path with
  | Error msg -> Alcotest.failf "read back: %s" msg
  | Ok [ a; b ] ->
    Alcotest.(check string) "first ev" "enqueue" (ev a);
    Alcotest.check value "seq" (R.Int 12) (find_exn "seq" a);
    Alcotest.(check string) "second ev" "qsample" (ev b);
    Alcotest.check value "qbytes" (R.Int 3000) (find_exn "qbytes" b)
  | Ok l -> Alcotest.failf "expected 2 records, got %d" (List.length l));
  Sys.remove path

(* --- disabled tracer ------------------------------------------------ *)

let test_disabled_noop () =
  Alcotest.(check bool) "off is off" false (Trace.is_on Trace.off);
  (* Emitting through the disabled tracer must be safe and silent. *)
  Trace.packet_event Trace.off ~now:0. ~kind:Trace.Drop ~queue:"q" ~flow:0
    ~seq:0 ~size:0 ~qlen:0 ();
  Trace.note Trace.off ~now:0. [ ("k", R.Str "v") ];
  Trace.close Trace.off

(* --- simulation wiring ---------------------------------------------- *)

let config ~qdisc ~cc ~n ~duration ~seed =
  Topology.dumbbell ~service:(Topology.Rate_mbps 10.) ~qdisc ~rtts:(Array.make n 0.05)
    ~cc ~workload:Workload.saturating ~start:`Immediate ~duration ~seed ()

let run_traced ?probe_interval cfg =
  let sink, read = Sink.memory () in
  let result = Topology.run ~tracer:(Trace.make sink) ?probe_interval cfg in
  (result, read ())

let test_tracing_preserves_results () =
  (* The determinism contract: results are bit-identical whether the
     tracer is absent, attached, or attached with probes. *)
  let cfg () =
    config ~qdisc:(Topology.Droptail 20) ~cc:(Newreno.factory ()) ~n:2
      ~duration:5. ~seed:42
  in
  let plain = Topology.run (cfg ()) in
  let traced, records = run_traced ~probe_interval:0.1 (cfg ()) in
  Alcotest.(check bool) "trace not empty" true (List.length records > 0);
  Alcotest.(check bool) "flow summaries identical" true
    (plain.Topology.flows = traced.Topology.flows);
  Alcotest.(check int) "drops identical" plain.Topology.drops traced.Topology.drops;
  Alcotest.(check int) "delivered identical" plain.Topology.delivered
    traced.Topology.delivered;
  Alcotest.(check (float 0.)) "utilization identical"
    plain.Topology.bottleneck_utilization traced.Topology.bottleneck_utilization

let test_event_ordering () =
  let _, records =
    run_traced
      (config ~qdisc:(Topology.Droptail 20) ~cc:(Newreno.factory ()) ~n:2
         ~duration:3. ~seed:9)
  in
  (* Events appear in engine-clock order. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "t non-decreasing" true (t_of a <= t_of b);
      monotone rest
    | _ -> ()
  in
  monotone records;
  (* Per packet, enqueue <= dequeue <= deliver. *)
  let first_time = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match (ev r, R.find "flow" r, R.find "seq" r) with
      | (("enqueue" | "dequeue" | "deliver") as e), Some (R.Int flow), Some (R.Int seq)
        ->
        let k = (e, flow, seq) in
        if not (Hashtbl.mem first_time k) then Hashtbl.add first_time k (t_of r)
      | _ -> ())
    records;
  let checked = ref 0 in
  Hashtbl.iter
    (fun (e, flow, seq) t ->
      if e = "deliver" then begin
        (match Hashtbl.find_opt first_time ("enqueue", flow, seq) with
        | Some t_enq ->
          incr checked;
          Alcotest.(check bool) "enqueue before deliver" true (t_enq <= t)
        | None -> Alcotest.failf "deliver without enqueue (flow %d seq %d)" flow seq);
        match Hashtbl.find_opt first_time ("dequeue", flow, seq) with
        | Some t_deq ->
          Alcotest.(check bool) "dequeue before deliver" true (t_deq <= t)
        | None -> Alcotest.failf "deliver without dequeue (flow %d seq %d)" flow seq
      end)
    first_time;
  Alcotest.(check bool) "some packets delivered" true (!checked > 0)

let count_ev ?queue records kind =
  List.length
    (List.filter
       (fun r ->
         ev r = kind
         && match queue with None -> true | Some q -> R.find "q" r = Some (R.Str q))
       records)

let test_all_qdiscs_traced () =
  (* Every bottleneck queue discipline reports through the tracer under
     the queue name trace-summary will aggregate by. *)
  let cases =
    [
      ("droptail", Topology.Droptail 10, Newreno.factory ());
      ("codel", Topology.Codel 40, Newreno.factory ());
      ("sfqcodel", Topology.Sfq_codel 40, Newreno.factory ());
      ( "dctcp-red",
        Topology.Dctcp_red { capacity = 100; threshold = 5 },
        Dctcp.factory () );
      ("xcp", Topology.Xcp 100, Xcp.factory ());
    ]
  in
  List.iter
    (fun (qname, qdisc, cc) ->
      let _, records = run_traced (config ~qdisc ~cc ~n:2 ~duration:5. ~seed:11) in
      let has kind = count_ev ~queue:qname records kind > 0 in
      Alcotest.(check bool) (qname ^ " enqueues") true (has "enqueue");
      Alcotest.(check bool) (qname ^ " dequeues") true (has "dequeue");
      Alcotest.(check bool) (qname ^ " delivers") true (has "deliver");
      if qname = "dctcp-red" then
        Alcotest.(check bool) "dctcp-red marks" true (has "ecn_mark"))
    cases

let test_red_marks_and_drops () =
  (* Classic RED is not a scheme's pairing, so exercise it directly:
     weight 1.0 makes the EWMA track the instantaneous queue, so pushing
     past max_th forces marks (ECN-capable) and early drops (not). *)
  let sink, read = Sink.memory () in
  let tracer = Trace.make sink in
  let table = Packet.create () in
  let q =
    Red.create ~tracer ~table ~capacity:1000 ~min_th:0. ~max_th:2. ~max_p:1.0
      ~weight:1.0 ~seed:1 ()
  in
  let pkt ~flags seq = Packet.acquire table ~flow:0 ~seq ~conn:0 ~flags ~now:0. in
  for seq = 0 to 9 do
    ignore (q.Qdisc.enqueue ~now:0. (pkt ~flags:Packet.ecn_capable seq))
  done;
  for seq = 10 to 14 do
    ignore (q.Qdisc.enqueue ~now:0. (pkt ~flags:0 seq))
  done;
  ignore (q.Qdisc.dequeue ~now:0.1);
  let records = read () in
  Alcotest.(check bool) "red marks" true (count_ev ~queue:"red" records "ecn_mark" > 0);
  Alcotest.(check bool) "red early-drops" true (count_ev ~queue:"red" records "drop" > 0);
  Alcotest.(check int) "red dequeues" 1 (count_ev ~queue:"red" records "dequeue")

let test_timeout_traced () =
  (* Heavy stochastic loss forces RTO episodes; each emits a host-side
     timeout event. *)
  let result, records =
    run_traced
      (config
         ~qdisc:(Topology.With_loss (0.35, Topology.Droptail 1000))
         ~cc:(Newreno.factory ()) ~n:1 ~duration:20. ~seed:3)
  in
  ignore result;
  Alcotest.(check bool) "timeouts traced" true (count_ev records "timeout" > 0);
  Alcotest.(check bool) "random drops traced" true
    (count_ev ~queue:"droptail+loss" records "drop" > 0)

let test_fold_file_streams () =
  (* fold_file is the streaming path under trace-summary: it must see
     exactly the records read_file materializes, in order, for both
     encodings, and surface malformed JSONL as an error. *)
  List.iter
    (fun format ->
      let _, records =
        run_traced ~probe_interval:0.5
          (config ~qdisc:(Topology.Droptail 10) ~cc:(Newreno.factory ()) ~n:2
             ~duration:2. ~seed:5)
      in
      let suffix = match format with `Jsonl -> ".jsonl" | `Csv -> ".csv" in
      let path = Filename.temp_file "fold_test" suffix in
      let sink =
        match format with
        | `Jsonl -> Sink.to_file path
        | `Csv -> Sink.to_file ~columns:Trace.columns path
      in
      List.iter (Sink.emit sink) records;
      Sink.close sink;
      let materialized =
        match Sink.read_file path with
        | Ok l -> l
        | Error e -> Alcotest.failf "read_file: %s" e
      in
      let folded =
        match Sink.fold_file path ~init:[] (fun acc r -> r :: acc) with
        | Ok l -> List.rev l
        | Error e -> Alcotest.failf "fold_file: %s" e
      in
      Alcotest.(check int)
        (suffix ^ " same record count")
        (List.length materialized) (List.length folded);
      List.iter2
        (fun a b ->
          Alcotest.(check string) (suffix ^ " same record") (R.to_json a)
            (R.to_json b))
        materialized folded;
      Sys.remove path)
    [ `Jsonl; `Csv ];
  let path = Filename.temp_file "fold_test" ".jsonl" in
  let oc = open_out path in
  output_string oc "{\"t\": 1.0, \"ev\": \"note\"}\nnot json at all\n";
  close_out oc;
  (match Sink.fold_file path ~init:0 (fun n _ -> n + 1) with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error _ -> ());
  Sys.remove path

let test_trace_summary_flow_cap () =
  (* Per-flow delay histograms are capped so a 10k-flow trace cannot
     blow summarization up; the aggregate histogram still sees every
     sample. *)
  let module TS = Remy_obs.Trace_summary in
  let n = TS.detailed_flow_cap + 36 in
  let records =
    List.init n (fun flow ->
        [
          ("t", R.Float (float_of_int flow *. 0.001));
          ("ev", R.Str "deliver");
          ("flow", R.Int flow);
          ("delay_s", R.Float 0.004);
        ])
  in
  let s = TS.of_records records in
  Alcotest.(check int) "every flow counted" n (Hashtbl.length s.TS.delivers_by_flow);
  Alcotest.(check int) "detail capped" TS.detailed_flow_cap
    (Hashtbl.length s.TS.delay_by_flow);
  Alcotest.(check bool) "cap flagged" true s.TS.delay_capped;
  Alcotest.(check int) "aggregate sees every sample" n
    (Remy_obs.Histogram.count (Hashtbl.find s.TS.delay_by_run 0));
  (* The capped pretty-printer path must not raise. *)
  ignore (Format.asprintf "%a" TS.pp s)

let test_trace_summary_runs () =
  (* Two traced schemes, flow ids restarting at 0 after each scheme
     note: their flows are tallied and printed apart. *)
  let module TS = Remy_obs.Trace_summary in
  let deliver flow delay =
    [ ("t", R.Float 0.); ("ev", R.Str "deliver"); ("flow", R.Int flow); ("delay_s", R.Float delay) ]
  in
  let note scheme = [ ("t", R.Float 0.); ("ev", R.Str "note"); ("scheme", R.Str scheme) ] in
  let s =
    TS.of_records
      [ note "A"; deliver 0 0.001; deliver 0 0.001; note "B"; deliver 0 0.002; deliver 1 0.003 ]
  in
  let delivers run flow = !(Hashtbl.find s.TS.delivers_by_flow (run, flow)) in
  Alcotest.(check (list int)) "per-run flow tallies" [ 2; 1; 1 ]
    [ delivers 1 0; delivers 2 0; delivers 2 1 ];
  Alcotest.(check int) "run B's aggregate" 2
    (Remy_obs.Histogram.count (Hashtbl.find s.TS.delay_by_run 2));
  let lines s = String.split_on_char '\n' (Format.asprintf "%a" TS.pp s) in
  let printed = lines s in
  Alcotest.(check bool) "run A labelled" true
    (List.mem "deliveries (A): 2 across 1 flow(s) — 0:2" printed);
  Alcotest.(check bool) "run B labelled" true
    (List.mem "deliveries (B): 2 across 2 flow(s) — 0:1 1:1" printed);
  (* Without a scheme note, every row is run 0 and prints unlabelled. *)
  Alcotest.(check bool) "no label without notes" true
    (List.mem "deliveries: 2 across 2 flow(s) — 0:1 1:1"
       (lines (TS.of_records [ deliver 0 0.001; deliver 1 0.002 ])))

let test_trace_summary_aggregates () =
  let result, records =
    run_traced ~probe_interval:0.5
      (config ~qdisc:(Topology.Droptail 10) ~cc:(Newreno.factory ()) ~n:2
         ~duration:4. ~seed:21)
  in
  let s = Remy_obs.Trace_summary.of_records records in
  Alcotest.(check int) "record count" (List.length records)
    s.Remy_obs.Trace_summary.records;
  Alcotest.(check int) "delivers == link deliveries" result.Topology.delivered
    (Remy_obs.Trace_summary.count s "deliver");
  Alcotest.(check int) "drops == qdisc drops" result.Topology.drops
    (Remy_obs.Trace_summary.count s "drop");
  let qs = Hashtbl.find s.Remy_obs.Trace_summary.by_queue "droptail" in
  Alcotest.(check bool) "occupancy tracked" true
    (qs.Remy_obs.Trace_summary.qlen_samples > 0
    && qs.Remy_obs.Trace_summary.qlen_max <= 10)

let tests =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "csv round-trip" `Quick test_csv_roundtrip;
    Alcotest.test_case "jsonl file round-trip" `Quick (test_file_roundtrip `Jsonl);
    Alcotest.test_case "csv file round-trip" `Quick (test_file_roundtrip `Csv);
    Alcotest.test_case "non-finite floats round-trip" `Quick test_nonfinite_roundtrip;
    Alcotest.test_case "disabled tracer is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "tracing preserves results" `Slow
      test_tracing_preserves_results;
    Alcotest.test_case "event order follows the clock" `Slow test_event_ordering;
    Alcotest.test_case "all qdiscs traced" `Slow test_all_qdiscs_traced;
    Alcotest.test_case "red marks and drops" `Quick test_red_marks_and_drops;
    Alcotest.test_case "timeouts traced" `Slow test_timeout_traced;
    Alcotest.test_case "trace-summary aggregates" `Slow
      test_trace_summary_aggregates;
    Alcotest.test_case "fold_file streams both encodings" `Slow
      test_fold_file_streams;
    Alcotest.test_case "trace-summary splits runs at scheme notes" `Quick
      test_trace_summary_runs;
    Alcotest.test_case "trace-summary caps per-flow detail" `Quick
      test_trace_summary_flow_cap;
  ]
