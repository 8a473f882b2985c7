let create engine ?(tracer = Remy_obs.Trace.off) ~table ~capacity_pps
    ~queue_capacity ?(alpha = 0.4) ?(beta = 0.226) ?(gamma = 0.1) () =
  let module T = Remy_obs.Trace in
  let q = Fifo.create () in
  let bytes = ref 0 in
  let drops = ref 0 in
  let event ~now kind h =
    if T.is_on tracer then
      T.packet_event tracer ~now ~kind ~queue:"xcp" ~flow:table.Packet.flow.{h}
        ~seq:table.Packet.seq.{h} ~size:table.Packet.size.{h} ~qlen:(Fifo.length q) ()
  in
  (* Control-interval accumulators (reset each interval). *)
  let arrivals = ref 0. in
  (* packets *)
  let sum_rtt = ref 0. in
  let sum_rtt_by_cwnd = ref 0. in
  let min_queue = ref 0 in
  (* Per-packet feedback scale factors, from the previous interval. *)
  let xi_pos = ref 0. in
  let xi_neg = ref 0. in
  let d = ref 0.1 in
  (* current control interval = mean RTT estimate *)
  let effective_rtt pkt_rtt = if pkt_rtt > 1e-6 then pkt_rtt else !d in
  let effective_cwnd c = Float.max 0.1 c in
  let rec control_tick () =
    let interval = !d in
    let y = !arrivals /. interval in
    (* input rate, pkts/s *)
    let spare = capacity_pps -. y in
    let phi =
      (alpha *. interval *. spare) -. (beta *. float_of_int !min_queue)
    in
    let shuffle = Float.max 0. ((gamma *. !arrivals) -. Float.abs phi) in
    let pos_budget = shuffle +. Float.max 0. phi in
    let neg_budget = shuffle +. Float.max 0. (-.phi) in
    xi_pos :=
      (if !sum_rtt_by_cwnd > 1e-12 then
         pos_budget /. (interval *. !sum_rtt_by_cwnd)
       else 0.);
    xi_neg :=
      (if !arrivals > 0. then neg_budget /. (interval *. !arrivals) else 0.);
    (* Next interval length: mean RTT of traffic, bounded for sanity. *)
    if !arrivals > 0. && !sum_rtt > 0. then
      d := Float.min 2.0 (Float.max 0.001 (!sum_rtt /. !arrivals));
    arrivals := 0.;
    sum_rtt := 0.;
    sum_rtt_by_cwnd := 0.;
    min_queue := Fifo.length q;
    Engine.schedule_in engine !d control_tick
  in
  Engine.schedule_in engine !d control_tick;
  let enqueue ~now h =
    if Fifo.length q >= queue_capacity then begin
      incr drops;
      event ~now T.Drop h;
      Packet.release table h;
      false
    end
    else begin
      arrivals := !arrivals +. 1.;
      if table.Packet.flags.{h} land Packet.xcp <> 0 then begin
        let rtt = effective_rtt table.Packet.xcp_rtt.{h} in
        let cwnd = effective_cwnd table.Packet.xcp_cwnd.{h} in
        sum_rtt := !sum_rtt +. rtt;
        sum_rtt_by_cwnd := !sum_rtt_by_cwnd +. (rtt /. cwnd);
        (* Downstream routers take the minimum feedback; emulate that
           even though our topologies have a single bottleneck. *)
        let feedback = (!xi_pos *. rtt *. rtt /. cwnd) -. (!xi_neg *. rtt) in
        table.Packet.xcp_feedback.{h} <- Float.min table.Packet.xcp_feedback.{h} feedback
      end;
      Fifo.push q h ~at:now;
      bytes := !bytes + table.Packet.size.{h};
      event ~now T.Enqueue h;
      true
    end
  in
  let dequeue ~now =
    let h = Fifo.pop q in
    if h <> Packet.none then begin
      bytes := !bytes - table.Packet.size.{h};
      event ~now T.Dequeue h
    end;
    if Fifo.length q < !min_queue then min_queue := Fifo.length q;
    h
  in
  {
    Qdisc.name = "xcp";
    enqueue;
    dequeue;
    length = (fun () -> Fifo.length q);
    byte_length = (fun () -> !bytes);
    drops = (fun () -> !drops);
  }
