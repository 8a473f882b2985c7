type state = { mutable srtt : float }

let make ?(initial_window = 2.) () =
  let p = { Cc.window = initial_window; intersend = 0. } in
  let s = { srtt = 0. } in
  let reset ~now:_ =
    p.window <- initial_window;
    s.srtt <- 0.
  in
  let on_ack (tbl : Remy_sim.Packet.table) h ~now ~newly_acked ~in_recovery =
    if Cc.rtt_valid tbl h then begin
      let rtt = now -. tbl.sent_at.{h} in
      if s.srtt <= 0. then s.srtt <- rtt
      else s.srtt <- (0.875 *. s.srtt) +. (0.125 *. rtt)
    end;
    (* NaN: no router on the path wrote feedback. *)
    let delta = tbl.xcp_feedback.{h} in
    if not (Float.is_nan delta) then p.window <- Float.max 1. (p.window +. delta)
    else if newly_acked > 0 && not in_recovery then
      (* No XCP router on the path: behave like Reno's increase. *)
      p.window <- p.window +. (float_of_int newly_acked /. p.window)
  in
  let on_loss ~now:_ = p.window <- Float.max 1. (p.window /. 2.) in
  let on_timeout ~now:_ = p.window <- 1. in
  let stamp (tbl : Remy_sim.Packet.table) h =
    tbl.flags.{h} <- tbl.flags.{h} lor Remy_sim.Packet.xcp;
    tbl.xcp_cwnd.{h} <- p.window;
    tbl.xcp_rtt.{h} <- s.srtt;
    tbl.xcp_feedback.{h} <- infinity
  in
  {
    Cc.name = "xcp";
    ecn_capable = false;
    pacing = p;
    reset;
    on_ack;
    on_loss;
    on_timeout;
    stamp;
  }

let factory ?initial_window () () = make ?initial_window ()
