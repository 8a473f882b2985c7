let make ?(g = 0.0625) () =
  let cwnd = ref 2. in
  let ssthresh = ref infinity in
  let alpha = ref 1. in
  (* start conservative, per the DCTCP paper *)
  let window_end = ref 0 in
  (* observation window boundary in sequence space *)
  let acked_total = ref 0 in
  let acked_marked = ref 0 in
  let reset ~now:_ =
    cwnd := 2.;
    ssthresh := infinity;
    alpha := 1.;
    window_end := 0;
    acked_total := 0;
    acked_marked := 0
  in
  let end_of_window () =
    if !acked_total > 0 then begin
      let f = float_of_int !acked_marked /. float_of_int !acked_total in
      alpha := ((1. -. g) *. !alpha) +. (g *. f);
      if !acked_marked > 0 then begin
        cwnd := Float.max 2. (!cwnd *. (1. -. (!alpha /. 2.)));
        ssthresh := !cwnd
      end
    end;
    acked_total := 0;
    acked_marked := 0
  in
  let on_ack (a : Cc.ack_info) =
    incr acked_total;
    if a.ecn_echo then incr acked_marked;
    if a.cum_ack >= !window_end then begin
      end_of_window ();
      (* Next observation window: roughly one cwnd of data ahead. *)
      window_end := a.cum_ack + Int.max 1 (int_of_float !cwnd)
    end;
    if a.newly_acked > 0 && not a.in_recovery then begin
      let n = float_of_int a.newly_acked in
      if !cwnd < !ssthresh then cwnd := !cwnd +. n
      else cwnd := !cwnd +. (n /. !cwnd)
    end
  in
  let on_loss ~now:_ =
    ssthresh := Float.max 2. (!cwnd /. 2.);
    cwnd := !ssthresh
  in
  let on_timeout ~now:_ =
    ssthresh := Float.max 2. (!cwnd /. 2.);
    cwnd := 1.
  in
  {
    Cc.name = "dctcp";
    ecn_capable = true;
    reset;
    on_ack;
    on_loss;
    on_timeout;
    window = (fun () -> !cwnd);
    intersend = (fun () -> 0.);
    stamp = Cc.no_stamp;
  }

let factory ?g () () = make ?g ()
