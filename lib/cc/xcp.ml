let make ?(initial_window = 2.) () =
  let cwnd = ref initial_window in
  let srtt = ref 0. in
  let reset ~now:_ =
    cwnd := initial_window;
    srtt := 0.
  in
  let on_ack (a : Cc.ack_info) =
    (match a.rtt with
    | Some rtt ->
      if !srtt <= 0. then srtt := rtt
      else srtt := (0.875 *. !srtt) +. (0.125 *. rtt)
    | None -> ());
    match a.xcp_feedback with
    | Some delta -> cwnd := Float.max 1. (!cwnd +. delta)
    | None ->
      (* No XCP router on the path: behave like Reno's increase. *)
      if a.newly_acked > 0 && not a.in_recovery then
        cwnd := !cwnd +. (float_of_int a.newly_acked /. !cwnd)
  in
  let on_loss ~now:_ = cwnd := Float.max 1. (!cwnd /. 2.) in
  let on_timeout ~now:_ = cwnd := 1. in
  let stamp (tbl : Remy_sim.Packet.table) h =
    tbl.flags.{h} <- tbl.flags.{h} lor Remy_sim.Packet.xcp;
    tbl.xcp_cwnd.{h} <- !cwnd;
    tbl.xcp_rtt.{h} <- !srtt;
    tbl.xcp_feedback.{h} <- infinity
  in
  {
    Cc.name = "xcp";
    ecn_capable = false;
    reset;
    on_ack;
    on_loss;
    on_timeout;
    window = (fun () -> !cwnd);
    intersend = (fun () -> 0.);
    stamp;
  }

let factory ?initial_window () () = make ?initial_window ()
