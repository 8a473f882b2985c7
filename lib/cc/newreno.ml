(* Float state lives in flat float records, so updates store unboxed. *)
type state = { mutable ssthresh : float }

let make ?(initial_window = 2.) () =
  let p = { Cc.window = initial_window; intersend = 0. } in
  let s = { ssthresh = infinity } in
  let reset ~now:_ =
    p.window <- initial_window;
    s.ssthresh <- infinity
  in
  let on_ack _ _ ~now:_ ~newly_acked ~in_recovery =
    if newly_acked > 0 && not in_recovery then begin
      let n = float_of_int newly_acked in
      if p.window < s.ssthresh then p.window <- p.window +. n
      else p.window <- p.window +. (n /. p.window)
    end
  in
  let on_loss ~now:_ =
    s.ssthresh <- Float.max 2. (p.window /. 2.);
    p.window <- s.ssthresh
  in
  let on_timeout ~now:_ =
    s.ssthresh <- Float.max 2. (p.window /. 2.);
    p.window <- 1.
  in
  {
    Cc.name = "newreno";
    ecn_capable = false;
    pacing = p;
    reset;
    on_ack;
    on_loss;
    on_timeout;
    stamp = Cc.no_stamp;
  }

let factory ?initial_window () () = make ?initial_window ()
