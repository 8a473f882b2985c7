type state = {
  mutable cwnd : float;
  mutable dwnd : float;
  mutable ssthresh : float;
  mutable base_rtt : float;
  mutable min_rtt_epoch : float;
  mutable epoch_end : float;
}

let make ?(alpha = 0.125) ?(beta = 0.5) ?(k = 0.75) ?(gamma = 30.) ?(zeta = 1.) () =
  let s =
    {
      cwnd = 2.;
      dwnd = 0.;
      ssthresh = infinity;
      base_rtt = infinity;
      min_rtt_epoch = infinity;
      epoch_end = 0.;
    }
  in
  (* The sender's window is the combined cwnd + dwnd, republished after
     every change to either. *)
  let p = { Cc.window = s.cwnd +. s.dwnd; intersend = 0. } in
  let publish () = p.window <- s.cwnd +. s.dwnd in
  let reset ~now:_ =
    s.cwnd <- 2.;
    s.dwnd <- 0.;
    s.ssthresh <- infinity;
    s.base_rtt <- infinity;
    s.min_rtt_epoch <- infinity;
    s.epoch_end <- 0.;
    publish ()
  in
  let per_rtt_update () =
    if Float.is_finite s.min_rtt_epoch && s.cwnd +. s.dwnd >= s.ssthresh then begin
      let rtt = s.min_rtt_epoch in
      let win = s.cwnd +. s.dwnd in
      let diff = win *. (rtt -. s.base_rtt) /. rtt in
      if diff < gamma then
        s.dwnd <- Float.max 0. (s.dwnd +. Float.max 0. ((alpha *. (win ** k)) -. 1.))
      else s.dwnd <- Float.max 0. (s.dwnd -. (zeta *. diff))
    end;
    s.min_rtt_epoch <- infinity
  in
  let on_ack (tbl : Remy_sim.Packet.table) h ~now ~newly_acked ~in_recovery =
    if Cc.rtt_valid tbl h then begin
      let rtt = now -. tbl.sent_at.{h} in
      if rtt < s.base_rtt then s.base_rtt <- rtt;
      if rtt < s.min_rtt_epoch then s.min_rtt_epoch <- rtt;
      if now >= s.epoch_end then begin
        if s.epoch_end > 0. then per_rtt_update ();
        s.epoch_end <- now +. rtt
      end
    end;
    if newly_acked > 0 && not in_recovery then begin
      let n = float_of_int newly_acked in
      if s.cwnd +. s.dwnd < s.ssthresh then s.cwnd <- s.cwnd +. n
      else s.cwnd <- s.cwnd +. (n /. (s.cwnd +. s.dwnd))
    end;
    publish ()
  in
  let on_loss ~now:_ =
    let win = s.cwnd +. s.dwnd in
    s.ssthresh <- Float.max 2. (win /. 2.);
    s.cwnd <- Float.max 2. (s.cwnd /. 2.);
    (* dwnd absorbs what remains of the halved combined window. *)
    s.dwnd <- Float.max 0. ((win *. (1. -. beta)) -. s.cwnd);
    s.min_rtt_epoch <- infinity;
    publish ()
  in
  let on_timeout ~now:_ =
    s.ssthresh <- Float.max 2. ((s.cwnd +. s.dwnd) /. 2.);
    s.cwnd <- 1.;
    s.dwnd <- 0.;
    publish ()
  in
  {
    Cc.name = "compound";
    ecn_capable = false;
    pacing = p;
    reset;
    on_ack;
    on_loss;
    on_timeout;
    stamp = Cc.no_stamp;
  }

let factory ?alpha ?beta ?k ?gamma ?zeta () () = make ?alpha ?beta ?k ?gamma ?zeta ()
