type state = { mutable ssthresh : float; mutable alpha : float }

let make ?(g = 0.0625) () =
  let p = { Cc.window = 2.; intersend = 0. } in
  (* alpha starts conservative, per the DCTCP paper *)
  let s = { ssthresh = infinity; alpha = 1. } in
  let window_end = ref 0 in
  (* observation window boundary in sequence space *)
  let acked_total = ref 0 in
  let acked_marked = ref 0 in
  let reset ~now:_ =
    p.window <- 2.;
    s.ssthresh <- infinity;
    s.alpha <- 1.;
    window_end := 0;
    acked_total := 0;
    acked_marked := 0
  in
  let end_of_window () =
    if !acked_total > 0 then begin
      let f = float_of_int !acked_marked /. float_of_int !acked_total in
      s.alpha <- ((1. -. g) *. s.alpha) +. (g *. f);
      if !acked_marked > 0 then begin
        p.window <- Float.max 2. (p.window *. (1. -. (s.alpha /. 2.)));
        s.ssthresh <- p.window
      end
    end;
    acked_total := 0;
    acked_marked := 0
  in
  let on_ack (tbl : Remy_sim.Packet.table) h ~now:_ ~newly_acked ~in_recovery =
    incr acked_total;
    if tbl.flags.{h} land Remy_sim.Packet.ecn_marked <> 0 then incr acked_marked;
    let cum_ack = tbl.cum_ack.{h} in
    if cum_ack >= !window_end then begin
      end_of_window ();
      (* Next observation window: roughly one cwnd of data ahead. *)
      window_end := cum_ack + Int.max 1 (int_of_float p.window)
    end;
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
    Cc.name = "dctcp";
    ecn_capable = true;
    pacing = p;
    reset;
    on_ack;
    on_loss;
    on_timeout;
    stamp = Cc.no_stamp;
  }

let factory ?g () () = make ?g ()
