let cbrt x = if x >= 0. then x ** (1. /. 3.) else -.((-.x) ** (1. /. 3.))

type state = {
  mutable ssthresh : float;
  mutable w_max : float;
  mutable k : float;
  mutable epoch_start : float;
  mutable w_est : float; (* TCP-friendly (Reno-equivalent) window estimate *)
  mutable srtt : float;
}

let make ?(c = 0.4) ?(beta = 0.7) ?(fast_convergence = true) () =
  let p = { Cc.window = 2.; intersend = 0. } in
  let s =
    { ssthresh = infinity; w_max = 0.; k = 0.; epoch_start = 0.; w_est = 0.; srtt = 0.1 }
  in
  let reset ~now:_ =
    p.window <- 2.;
    s.ssthresh <- infinity;
    s.w_max <- 0.;
    s.k <- 0.;
    s.epoch_start <- 0.;
    s.w_est <- 0.;
    s.srtt <- 0.1
  in
  let enter_epoch now =
    s.epoch_start <- now;
    if p.window < s.w_max then s.k <- cbrt ((s.w_max -. p.window) /. c) else s.k <- 0.;
    s.w_est <- p.window
  in
  let on_ack (tbl : Remy_sim.Packet.table) h ~now ~newly_acked ~in_recovery =
    if Cc.rtt_valid tbl h then
      s.srtt <- (0.875 *. s.srtt) +. (0.125 *. (now -. tbl.sent_at.{h}));
    if newly_acked > 0 && not in_recovery then begin
      let n = float_of_int newly_acked in
      if p.window < s.ssthresh then p.window <- p.window +. n
      else begin
        if s.epoch_start <= 0. then enter_epoch now;
        let t = now -. s.epoch_start +. s.srtt in
        let target = (c *. ((t -. s.k) ** 3.)) +. s.w_max in
        (* Reno-equivalent growth for the TCP-friendly floor. *)
        s.w_est <- s.w_est +. (3. *. (1. -. beta) /. (1. +. beta) *. (n /. p.window));
        let cubic_next =
          if target > p.window then p.window +. ((target -. p.window) /. p.window *. n)
          else p.window +. (0.01 *. n /. p.window)
        in
        p.window <- Float.max cubic_next s.w_est
      end
    end
  in
  let multiplicative_decrease () =
    (* Fast convergence: release bandwidth when the loss came below the
       previous W_max. *)
    if fast_convergence && p.window < s.w_max then
      s.w_max <- p.window *. (1. +. beta) /. 2.
    else s.w_max <- p.window;
    p.window <- Float.max 2. (p.window *. beta);
    s.ssthresh <- p.window;
    s.epoch_start <- 0.
  in
  let on_loss ~now:_ = multiplicative_decrease () in
  let on_timeout ~now:_ =
    multiplicative_decrease ();
    p.window <- 1.
  in
  {
    Cc.name = "cubic";
    ecn_capable = false;
    pacing = p;
    reset;
    on_ack;
    on_loss;
    on_timeout;
    stamp = Cc.no_stamp;
  }

let factory ?c ?beta ?fast_convergence () () = make ?c ?beta ?fast_convergence ()
