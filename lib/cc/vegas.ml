type state = {
  mutable base_rtt : float;
  mutable min_rtt_epoch : float; (* smallest RTT this epoch *)
  mutable epoch_end : float;
}

let make ?(alpha = 1.) ?(beta = 3.) ?(gamma = 1.) () =
  let p = { Cc.window = 2.; intersend = 0. } in
  let s = { base_rtt = infinity; min_rtt_epoch = infinity; epoch_end = 0. } in
  let slow_start = ref true in
  let grow_this_epoch = ref true in
  (* Vegas doubles every *other* RTT *)
  let reset ~now:_ =
    p.window <- 2.;
    s.base_rtt <- infinity;
    s.min_rtt_epoch <- infinity;
    s.epoch_end <- 0.;
    slow_start := true;
    grow_this_epoch := true
  in
  let per_rtt_update () =
    if Float.is_finite s.min_rtt_epoch && s.base_rtt > 0. then begin
      let rtt = s.min_rtt_epoch in
      (* Estimated backlog at the bottleneck, in packets. *)
      let diff = p.window *. (rtt -. s.base_rtt) /. rtt in
      if !slow_start then begin
        if diff > gamma then slow_start := false
        else if !grow_this_epoch then p.window <- p.window *. 2.;
        grow_this_epoch := not !grow_this_epoch
      end
      else if diff < alpha then p.window <- p.window +. 1.
      else if diff > beta then p.window <- Float.max 2. (p.window -. 1.)
    end;
    s.min_rtt_epoch <- infinity
  in
  let on_ack (tbl : Remy_sim.Packet.table) h ~now ~newly_acked:_ ~in_recovery:_ =
    if Cc.rtt_valid tbl h then begin
      let rtt = now -. tbl.sent_at.{h} in
      if rtt < s.base_rtt then s.base_rtt <- rtt;
      if rtt < s.min_rtt_epoch then s.min_rtt_epoch <- rtt;
      if now >= s.epoch_end then begin
        if s.epoch_end > 0. then per_rtt_update ();
        s.epoch_end <- now +. rtt
      end
    end
  in
  let on_loss ~now:_ =
    slow_start := false;
    p.window <- Float.max 2. (p.window /. 2.)
  in
  let on_timeout ~now:_ =
    slow_start := false;
    p.window <- 2.
  in
  {
    Cc.name = "vegas";
    ecn_capable = false;
    pacing = p;
    reset;
    on_ack;
    on_loss;
    on_timeout;
    stamp = Cc.no_stamp;
  }

let factory ?alpha ?beta ?gamma () () = make ?alpha ?beta ?gamma ()
