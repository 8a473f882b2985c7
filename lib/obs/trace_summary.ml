type queue_stats = {
  mutable enqueues : int;
  mutable dequeues : int;
  mutable drops : int;
  mutable marks : int;
  mutable qlen_sum : float;
  mutable qlen_samples : int;
  mutable qlen_max : int;
}

(* A full histogram is ~10 KB; keeping one per flow is what made
   summarizing a 10k-flow trace blow up.  Per-flow detail is therefore
   capped: the first [detailed_flow_cap] flows seen get their own
   histogram, every delay sample additionally lands in its run's
   aggregate in [delay_by_run], and flows beyond the cap only set
   [delay_capped]. *)
let detailed_flow_cap = 64

type t = {
  mutable records : int;
  mutable t_min : float;
  mutable t_max : float;
  mutable timeouts : int;
  mutable notes : int;
  by_event : (string, int ref) Hashtbl.t;
  by_queue : (string, queue_stats) Hashtbl.t;
  mutable run : int;
  schemes : (int, string) Hashtbl.t;
  delivers_by_flow : (int * int, int ref) Hashtbl.t;
  delay_by_flow : (int * int, Histogram.t) Hashtbl.t;
  delay_by_run : (int, Histogram.t) Hashtbl.t;
  mutable delay_capped : bool;
}

let create () =
  {
    records = 0;
    t_min = infinity;
    t_max = neg_infinity;
    timeouts = 0;
    notes = 0;
    by_event = Hashtbl.create 16;
    by_queue = Hashtbl.create 8;
    run = 0;
    schemes = Hashtbl.create 4;
    delivers_by_flow = Hashtbl.create 16;
    delay_by_flow = Hashtbl.create 16;
    delay_by_run = Hashtbl.create 4;
    delay_capped = false;
  }

let flow_delay_histogram t key =
  match Hashtbl.find_opt t.delay_by_flow key with
  | Some h -> Some h
  | None ->
    if Hashtbl.length t.delay_by_flow < detailed_flow_cap then begin
      let h = Histogram.create () in
      Hashtbl.add t.delay_by_flow key h;
      Some h
    end
    else begin
      t.delay_capped <- true;
      None
    end

let run_delay_histogram t =
  match Hashtbl.find_opt t.delay_by_run t.run with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.add t.delay_by_run t.run h;
    h

let queue_stats t q =
  match Hashtbl.find_opt t.by_queue q with
  | Some s -> s
  | None ->
    let s =
      {
        enqueues = 0;
        dequeues = 0;
        drops = 0;
        marks = 0;
        qlen_sum = 0.;
        qlen_samples = 0;
        qlen_max = 0;
      }
    in
    Hashtbl.add t.by_queue q s;
    s

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.add tbl key (ref 1)

let add t (r : Record.t) =
  t.records <- t.records + 1;
  (match Option.bind (Record.find "t" r) Record.to_float with
  | Some at ->
    if at < t.t_min then t.t_min <- at;
    if at > t.t_max then t.t_max <- at
  | None -> ());
  match Option.bind (Record.find "ev" r) Record.to_str with
  | None -> ()
  | Some ev ->
    bump t.by_event ev;
    let queue () = Option.bind (Record.find "q" r) Record.to_str in
    let qlen () = Option.bind (Record.find "qlen" r) Record.to_int in
    let observe_qlen () =
      match (queue (), qlen ()) with
      | Some q, Some n ->
        let s = queue_stats t q in
        s.qlen_sum <- s.qlen_sum +. float_of_int n;
        s.qlen_samples <- s.qlen_samples + 1;
        if n > s.qlen_max then s.qlen_max <- n;
        Some (queue_stats t q)
      | Some q, None -> Some (queue_stats t q)
      | None, _ -> None
    in
    (match ev with
    | "enqueue" -> (
      match observe_qlen () with Some s -> s.enqueues <- s.enqueues + 1 | None -> ())
    | "dequeue" -> (
      match observe_qlen () with Some s -> s.dequeues <- s.dequeues + 1 | None -> ())
    | "drop" -> (
      match observe_qlen () with Some s -> s.drops <- s.drops + 1 | None -> ())
    | "ecn_mark" -> (
      match observe_qlen () with Some s -> s.marks <- s.marks + 1 | None -> ())
    | "qsample" -> ignore (observe_qlen ())
    | "deliver" -> (
      ignore (observe_qlen ());
      match Option.bind (Record.find "flow" r) Record.to_int with
      | Some flow ->
        bump t.delivers_by_flow (t.run, flow);
        (match Option.bind (Record.find "delay_s" r) Record.to_float with
        | Some d ->
          Histogram.record (run_delay_histogram t) d;
          (match flow_delay_histogram t (t.run, flow) with
          | Some h -> Histogram.record h d
          | None -> ())
        | None -> ())
      | None -> ())
    | "timeout" -> t.timeouts <- t.timeouts + 1
    | "note" -> (
      t.notes <- t.notes + 1;
      (* Each traced scheme opens with a note naming it, and its flow
         ids restart at 0. *)
      match Option.bind (Record.find "scheme" r) Record.to_str with
      | Some scheme ->
        t.run <- t.run + 1;
        Hashtbl.replace t.schemes t.run scheme
      | None -> ())
    | _ -> ())

let of_records records =
  let t = create () in
  List.iter (add t) records;
  t

(* Streams: constant space in the number of events, bounded space in the
   number of flows. *)
let of_file path =
  let t = create () in
  Result.map
    (fun () -> t)
    (Sink.fold_file path ~init:() (fun () r -> add t r))

let count t ev =
  match Hashtbl.find_opt t.by_event ev with Some r -> !r | None -> 0

(* Monomorphic comparison at each call site: key types differ per table
   and polymorphic compare is linted against. *)
let sorted_keys cmp tbl =
  List.sort cmp (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

(* The flows of [run] that have an entry in [tbl], in order. *)
let run_flows tbl run =
  List.sort Int.compare
    (Hashtbl.fold (fun (r, flow) _ acc -> if r = run then flow :: acc else acc) tbl [])

(* Deliveries and queueing delay of one run's flows.  [label] names the
   run's scheme, if a note named it. *)
let pp_run fmt t ~label run =
  let flows = run_flows t.delivers_by_flow run in
  let delivers f = !(Hashtbl.find t.delivers_by_flow (run, f)) in
  let total = List.fold_left (fun acc f -> acc + delivers f) 0 flows in
  Format.fprintf fmt "@.deliveries%s: %d across %d flow(s)" label total (List.length flows);
  if List.length flows <= 16 then begin
    Format.fprintf fmt " —";
    List.iter (fun f -> Format.fprintf fmt " %d:%d" f (delivers f)) flows
  end;
  Format.fprintf fmt "@.";
  let delay_flows = run_flows t.delay_by_flow run in
  if delay_flows <> [] then
    if (not t.delay_capped) && List.length delay_flows <= 16 then begin
      Format.fprintf fmt "@.%-6s %9s %12s %12s %12s@." "flow" "samples" "delay p50"
        "delay p99" "max";
      List.iter
        (fun f ->
          let h = Hashtbl.find t.delay_by_flow (run, f) in
          Format.fprintf fmt "%-6d %9d %11.4gs %11.4gs %11.4gs@." f (Histogram.count h)
            (Histogram.quantile h 0.5) (Histogram.quantile h 0.99) (Histogram.max_value h))
        delay_flows
    end
    else begin
      (* Too many flows for a per-flow table: one aggregate row.  The
         run's aggregate histogram covers every flow, including those
         past the per-flow detail cap. *)
      let h = Hashtbl.find t.delay_by_run run in
      Format.fprintf fmt "@.%-6s %9s %12s %12s %12s@." "flows" "samples" "delay p50"
        "delay p99" "max";
      Format.fprintf fmt "%-6d %9d %11.4gs %11.4gs %11.4gs@." (List.length flows)
        (Histogram.count h) (Histogram.quantile h 0.5) (Histogram.quantile h 0.99)
        (Histogram.max_value h)
    end

let pp fmt t =
  if t.records = 0 then Format.fprintf fmt "empty trace@."
  else begin
    let span =
      if Float.is_finite t.t_min && Float.is_finite t.t_max then t.t_max -. t.t_min
      else 0.
    in
    Format.fprintf fmt "%d records spanning %.6g s (t = %.6g .. %.6g)@." t.records
      span
      (if Float.is_finite t.t_min then t.t_min else 0.)
      (if Float.is_finite t.t_max then t.t_max else 0.);
    Format.fprintf fmt "@.events:@.";
    List.iter
      (fun ev -> Format.fprintf fmt "  %-10s %8d@." ev (count t ev))
      (sorted_keys String.compare t.by_event);
    if Hashtbl.length t.by_queue > 0 then begin
      Format.fprintf fmt "@.%-14s %9s %9s %7s %7s %10s %6s@." "queue" "enqueue"
        "dequeue" "drop" "mark" "mean qlen" "max";
      List.iter
        (fun q ->
          let s = Hashtbl.find t.by_queue q in
          let mean =
            if s.qlen_samples > 0 then s.qlen_sum /. float_of_int s.qlen_samples
            else 0.
          in
          Format.fprintf fmt "%-14s %9d %9d %7d %7d %10.2f %6d@." q s.enqueues
            s.dequeues s.drops s.marks mean s.qlen_max)
        (sorted_keys String.compare t.by_queue)
    end;
    let runs =
      List.sort_uniq Int.compare
        (Hashtbl.fold (fun (run, _) _ acc -> run :: acc) t.delivers_by_flow [])
    in
    List.iter
      (fun run ->
        let label =
          match Hashtbl.find_opt t.schemes run with
          | Some scheme -> Printf.sprintf " (%s)" scheme
          | None -> ""
        in
        pp_run fmt t ~label run)
      runs;
    if t.timeouts > 0 then Format.fprintf fmt "timeouts: %d@." t.timeouts
  end
